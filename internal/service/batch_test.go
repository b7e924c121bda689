package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hmem"
)

// referenceEngine evaluates on one in-process hmem.Engine with the
// server's default options: the ground truth the service must reproduce
// byte for byte, computed without any of the service's code.
func referenceEngine(t *testing.T, cfg Config) func(workloadName string, policy hmem.PolicyName) hmem.Result {
	t.Helper()
	opts := cfg.Defaults
	e, err := hmem.NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	return func(workloadName string, policy hmem.PolicyName) hmem.Result {
		t.Helper()
		res, err := e.Evaluate(context.Background(), workloadName, policy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// referenceJSON is the wire form of a reference value: marshalled and
// followed by the newline every JSON response ends with.
func referenceJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// postRaw posts body to path and returns the 200 response's raw bytes.
func postRaw(t *testing.T, baseURL, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: status %d: %s", path, body, resp.StatusCode, raw)
	}
	return raw
}

// batchItemGrid builds n evaluate items cycling a small workload × policy
// grid, so large batches repeat keys (exercising in-batch dedup) while
// small ones stay distinct.
func batchItemGrid(n int) []BatchItem {
	workloads := []string{"astar", "mcf", "soplex", "milc"}
	policies := []hmem.PolicyName{hmem.PolicyDDROnly, hmem.PolicyPerfFocused, hmem.PolicyBalanced, hmem.PolicyWr2Ratio}
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{
			ID:       fmt.Sprintf("item-%d", i),
			Workload: workloads[i%len(workloads)],
			Policy:   policies[(i/len(workloads))%len(policies)],
		}
	}
	return items
}

// TestBatchDifferential is the batch path's anchor: every line of a batch of
// N items is byte-identical to an in-process engine's result for the item,
// across batch sizes and server parallelism. The comparison is
// append(item.Result, '\n') against the marshalled reference plus newline —
// the exact bytes /v1/evaluate puts on the wire.
func TestBatchDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not a -short test")
	}
	base := tinyConfig()
	base.Defaults.RecordsPerCore = 1200
	base.Defaults.FaultTrials = 800
	ref := referenceEngine(t, base) // Parallel never changes a result
	sizes := []int{1, 16, 256}
	parallels := []int{1, runtime.NumCPU()}
	for _, par := range parallels {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("items=%d/parallel=%d", n, par), func(t *testing.T) {
				cfg := base
				cfg.Defaults.Parallel = par
				_, c := newTestServer(t, cfg)
				items := batchItemGrid(n)

				results, sum, err := c.CollectBatch(context.Background(), BatchRequest{Items: items})
				if err != nil {
					t.Fatal(err)
				}
				if sum.Items != n || sum.Errors != 0 {
					t.Fatalf("summary = %+v, want %d items, 0 errors", sum, n)
				}
				if len(results) != n {
					t.Fatalf("got %d result lines, want %d", len(results), n)
				}
				for i, res := range results {
					if res.Seq != i+1 || res.Index != i || res.ID != items[i].ID {
						t.Fatalf("line %d: seq=%d index=%d id=%q, want seq=%d index=%d id=%q",
							i, res.Seq, res.Index, res.ID, i+1, i, items[i].ID)
					}
					if res.Error != "" {
						t.Fatalf("item %d failed: %s", i, res.Error)
					}
					want := referenceJSON(t, ref(items[i].Workload, items[i].Policy))
					got := append(bytes.Clone(res.Result), '\n')
					if !bytes.Equal(got, want) {
						t.Fatalf("item %d (%s/%s): batch bytes differ from the in-process engine\nbatch:  %s\nengine: %s",
							i, items[i].Workload, items[i].Policy, got, want)
					}
				}
			})
		}
	}
}

// TestBatchCoalescing pins the server half of trace sharing: K
// same-workload, different-policy items record the trace exactly once,
// every later simulation replays the recording, the recording's bytes are
// exported, and the results are still byte-identical to an in-process
// engine.
func TestBatchCoalescing(t *testing.T) {
	policies := []hmem.PolicyName{hmem.PolicyPerfFocused, hmem.PolicyBalanced, hmem.PolicyWrRatio, hmem.PolicyWr2Ratio}
	items := make([]BatchItem, len(policies))
	for i, p := range policies {
		items[i] = BatchItem{ID: string(p), Workload: "astar", Policy: p}
	}

	svc, c := newTestServer(t, tinyConfig())
	results, sum, err := c.CollectBatch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary = %+v, want no errors", sum)
	}
	st := svc.engineTotals().trace
	if st.Opens != 1 {
		t.Fatalf("batch opened the trace %d times, want exactly 1 (one recording)", st.Opens)
	}
	if st.CoalesceHits < uint64(len(items)) {
		t.Fatalf("coalesce hits = %d, want at least %d (one per item)", st.CoalesceHits, len(items))
	}

	// The counters are exported: the metrics page must carry both families.
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"hmemd_trace_opens_total 1", "hmemd_coalesce_hits_total", "hmemd_batch_requests_total 1"} {
		if !strings.Contains(string(page), family) {
			t.Errorf("metrics page missing %q", family)
		}
	}
	if want := fmt.Sprintf("\nhmemd_trace_recording_bytes %d\n", svc.engineTotals().recordingBytes); svc.engineTotals().recordingBytes == 0 || !strings.Contains(string(page), want) {
		t.Errorf("metrics page does not export the recording's bytes as %q", strings.TrimSpace(want))
	}

	// The same items on an engine that never coalesces: bytes must match —
	// coalescing is invisible in results.
	ref := referenceEngine(t, tinyConfig())
	for i, res := range results {
		want := referenceJSON(t, ref(items[i].Workload, items[i].Policy))
		got := append(bytes.Clone(res.Result), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("policy %s: coalesced bytes differ from uncoalesced evaluation", items[i].Policy)
		}
	}
}

// TestOneItemEndpoints pins /v1/evaluate and /v1/compare, one-item runs of
// the batch executor, to an in-process engine byte for byte — and pins that
// they coalesce like a batch: on a fresh server, a balanced evaluate's
// profiling run and policy simulation replay one trace generation.
func TestOneItemEndpoints(t *testing.T) {
	cfg := tinyConfig()
	_, c := newTestServer(t, cfg)
	ref := referenceEngine(t, cfg)
	ddr := ref("astar", hmem.PolicyDDROnly)
	balanced := ref("astar", hmem.PolicyBalanced)

	got := postRaw(t, c.BaseURL, "/v1/evaluate", `{"workload":"astar","policy":"balanced"}`)
	if want := referenceJSON(t, balanced); !bytes.Equal(got, want) {
		t.Fatalf("evaluate bytes differ from the in-process engine\nserver: %s\nengine: %s", got, want)
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "\nhmemd_trace_opens_total 1\n") {
		t.Error("a fresh balanced evaluate did not generate its trace exactly once")
	}

	got = postRaw(t, c.BaseURL, "/v1/compare", `{"workload":"astar","policies":["ddr-only","balanced"]}`)
	want := referenceJSON(t, map[string]any{"results": []hmem.Result{ddr, balanced}})
	if !bytes.Equal(got, want) {
		t.Fatalf("compare bytes differ from the in-process engine\nserver: %s\nengine: %s", got, want)
	}
}

// gatedTraces blocks every astar trace stream a simulation opens until open
// is called; reached closes when the first one is requested. The gate holds
// a run's simulations mid-flight so a test can read the admission ledger.
func gatedTraces(cfg *Config) (reached <-chan struct{}, open func()) {
	gate, entered := make(chan struct{}), make(chan struct{})
	var opened, enter sync.Once
	cfg.TraceWrap = func(workloadName string, s hmem.TraceStream) hmem.TraceStream {
		if workloadName == "astar" {
			enter.Do(func() { close(entered) })
			<-gate
		}
		return s
	}
	return entered, func() { opened.Do(func() { close(gate) }) }
}

// TestBatchDisconnectKeepsCostUntilSettled: a client that posts a batch and
// hangs up must not hand back its admission cost while the simulation it
// started is still running — the cost returns only once the work settles.
func TestBatchDisconnectKeepsCostUntilSettled(t *testing.T) {
	cfg := tinyConfig()
	reached, open := gatedTraces(&cfg)
	svc, c := newTestServer(t, cfg)
	t.Cleanup(open) // runs before the server's cleanup, which waits for handlers

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.CollectBatch(ctx, BatchRequest{Items: []BatchItem{{Workload: "astar", Policy: hmem.PolicyBalanced}}})
	}()
	<-reached
	cancel()
	<-done
	// The handler has returned (its request is counted) ...
	waitFor(t, func() bool { return requestCount(t, c.BaseURL, "POST /v1/batch", http.StatusOK) == 1 })
	// ... but the simulation is still held at the gate, and so is its cost.
	if got := svc.adm.inflight(); got != 1 {
		t.Fatalf("in-flight cost after the client left = %v, want 1 (simulation still running)", got)
	}
	open()
	waitFor(t, func() bool { return svc.adm.inflight() == 0 })
}

// TestCompareChargesRepeatedPolicyOnce: a compare naming one policy twice is
// one fresh result key, so it costs one unit, as the same items would in a
// batch.
func TestCompareChargesRepeatedPolicyOnce(t *testing.T) {
	cfg := tinyConfig()
	reached, open := gatedTraces(&cfg)
	svc, c := newTestServer(t, cfg)
	t.Cleanup(open)

	errc := make(chan error, 1)
	go func() {
		_, err := c.Compare(context.Background(), CompareRequest{
			Workload: "astar", Policies: []hmem.PolicyName{hmem.PolicyBalanced, hmem.PolicyBalanced}})
		errc <- err
	}()
	<-reached
	if got := svc.adm.inflight(); got != 1 {
		t.Fatalf("in-flight cost of a repeated-policy compare = %v, want 1", got)
	}
	open()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := svc.adm.inflight(); got != 0 {
		t.Fatalf("in-flight cost after the response = %v, want 0", got)
	}
}

// TestBatchCompareItems checks the compare flavor: a Policies item carries
// the same payload /v1/compare would produce, and mixes freely with
// evaluate items in one batch.
func TestBatchCompareItems(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()
	items := []BatchItem{
		{ID: "cmp", Workload: "astar", Policies: []hmem.PolicyName{hmem.PolicyDDROnly, hmem.PolicyBalanced}},
		{ID: "one", Workload: "astar", Policy: hmem.PolicyDDROnly},
	}
	results, sum, err := c.CollectBatch(ctx, BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Items != 2 || sum.Errors != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	cmp, err := results[0].Comparisons()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 2 {
		t.Fatalf("compare item returned %d results, want 2", len(cmp))
	}
	single, err := results[1].Evaluation()
	if err != nil {
		t.Fatal(err)
	}
	// The compare item's ddr-only entry and the evaluate item are the same
	// cached computation.
	if !reflect.DeepEqual(cmp[0], single) {
		t.Fatal("compare and evaluate disagree on the same workload × policy")
	}
}

// TestBatchThroughput is the acceptance ratio: on a same-workload
// multi-policy profile, the batch path over a pooled client must clear at
// least 2× the ops/sec of one-request-per-round-trip sequential
// evaluation. Steady state (warm engine memo) is measured, so the ratio
// isolates the request path — pipelining N items over one request versus N
// round trips — rather than simulation time. Each round times one
// sequential pass and then one batch, back to back, and the test holds the
// median of the rounds' ratios to the floor. A shared host's speed drifts
// by up to 2x between phases, so the best sequential pass and the best
// batch, taken from different rounds, may come from different phases; and
// a stall that hits one round's side only moves that round's ratio, which
// the median ignores.
func TestBatchThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is not a -short test")
	}
	policies := []hmem.PolicyName{
		hmem.PolicyDDROnly, hmem.PolicyPerfFocused, hmem.PolicyReliabilityFocused,
		hmem.PolicyBalanced, hmem.PolicyWrRatio, hmem.PolicyWr2Ratio,
		hmem.PolicyPerfMigration, hmem.PolicyFCMigration, hmem.PolicyCCMigration,
		hmem.PolicyAnnotation,
	}
	items := make([]BatchItem, len(policies))
	for i, p := range policies {
		items[i] = BatchItem{ID: string(p), Workload: "mcf", Policy: p}
	}
	ctx := context.Background()

	_, base := newTestServer(t, tinyConfig())
	pooled := NewPooledClient(base.BaseURL, 8)
	// Warm the engine: after this, both sides serve identical memoized
	// evaluations and differ only in transport.
	if _, sum, err := pooled.CollectBatch(ctx, BatchRequest{Items: items}); err != nil || sum.Errors != 0 {
		t.Fatalf("warm-up batch: err=%v summary=%+v", err, sum)
	}

	seq := func() error {
		for _, it := range items {
			if _, err := pooled.Evaluate(ctx, EvaluateRequest{Workload: it.Workload, Policy: it.Policy}); err != nil {
				return err
			}
		}
		return nil
	}
	batch := func() error {
		_, sum, err := pooled.CollectBatch(ctx, BatchRequest{Items: items})
		if err != nil {
			return err
		}
		if sum.Errors != 0 {
			return fmt.Errorf("batch summary: %+v", sum)
		}
		return nil
	}
	timed := func(run func() error) time.Duration {
		start := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const rounds = 15
	ratios := make([]float64, rounds)
	seqs, batches := make([]time.Duration, rounds), make([]time.Duration, rounds)
	for r := range rounds {
		seqs[r] = timed(seq)
		batches[r] = timed(batch)
		ratios[r] = float64(seqs[r]) / float64(batches[r])
	}
	slices.Sort(ratios)
	slices.Sort(seqs)
	slices.Sort(batches)
	ratio := ratios[rounds/2]
	ops := float64(len(items))
	seqMed, batchMed := seqs[rounds/2], batches[rounds/2]
	t.Logf("median sequential %v (%.0f ops/s), median batch %v (%.0f ops/s), median round speedup %.2fx (rounds %.2f..%.2fx)",
		seqMed, ops/seqMed.Seconds(), batchMed, ops/batchMed.Seconds(), ratio, ratios[0], ratios[rounds-1])
	if ratio < 2 {
		t.Fatalf("batch speedup %.2fx in the median round, acceptance floor is 2x (round ratios %.2f)", ratio, ratios)
	}
}

// TestBatchValidation: malformed batches 400 before any work or admission
// charge.
func TestBatchValidation(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{nope`},
		{"empty items", `{"items":[]}`},
		{"unknown field", `{"items":[{"workload":"astar","policy":"ddr-only"}],"bogus":1}`},
		{"trailing data", `{"items":[{"workload":"astar","policy":"ddr-only"}]}{}`},
		{"no policy", `{"items":[{"workload":"astar"}]}`},
		{"both policy and policies", `{"items":[{"workload":"astar","policy":"ddr-only","policies":["balanced"]}]}`},
		{"unknown workload", `{"items":[{"workload":"nope","policy":"ddr-only"}]}`},
		{"unknown policy", `{"items":[{"workload":"astar","policy":"nope"}]}`},
		{"bad option patch", `{"items":[{"workload":"astar","policy":"ddr-only","options":{"topology":"nope"}}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(c.BaseURL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Oversized item count is refused by the decoder, not the body limit.
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"workload":"astar","policy":"ddr-only"}`)
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(c.BaseURL+"/v1/batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}
