package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hmem"
)

// tinyConfig keeps server-side simulations small enough for test wall time
// while still exercising the full stack.
func tinyConfig() Config {
	return Config{
		Defaults: hmem.Options{RecordsPerCore: 3000, FaultTrials: 2000},
	}
}

// newTestServer starts a Service on an httptest server and hands back a
// client wired to it. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Shutdown(ctx)
		ts.Close()
	})
	return svc, &Client{BaseURL: ts.URL}
}

func TestListEndpoints(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()

	workloads, benchmarks, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(workloads) != 14 || len(benchmarks) != 17 {
		t.Fatalf("workloads=%d benchmarks=%d, want 14/17", len(workloads), len(benchmarks))
	}
	policies, err := c.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(policies) != 10 {
		t.Fatalf("policies = %d, want 10", len(policies))
	}
	experiments, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(experiments) != 23 {
		t.Fatalf("experiments = %d, want 23", len(experiments))
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()

	cases := []struct {
		name string
		req  EvaluateRequest
	}{
		{"unknown workload", EvaluateRequest{Workload: "nope", Policy: hmem.PolicyDDROnly}},
		{"unknown policy", EvaluateRequest{Workload: "astar", Policy: "nope"}},
	}
	for _, tc := range cases {
		_, err := c.Evaluate(ctx, tc.req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", tc.name, err)
		}
	}

	// Malformed body, unknown fields, and trailing garbage all 400.
	for _, body := range []string{"{not json", `{"workload":"astar","policy":"ddr-only","bogus":1}`, `{"workload":"astar","policy":"ddr-only"}{}`} {
		resp, err := http.Post(c.BaseURL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBodyBytes = 64
	_, c := newTestServer(t, cfg)
	big := fmt.Sprintf(`{"workload":%q,"policy":"ddr-only"}`, strings.Repeat("x", 200))
	resp, err := http.Post(c.BaseURL+"/v1/evaluate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestConcurrentIdenticalEvaluatesShareOneSimulation is the issue's
// acceptance test: two concurrent identical evaluate requests perform one
// simulation, and a repeat performs none.
func TestConcurrentIdenticalEvaluatesShareOneSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()
	req := EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly}

	var wg sync.WaitGroup
	results := make([]hmem.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Evaluate(ctx, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("concurrent identical requests disagree: %+v vs %+v", results[0], results[1])
	}
	simRuns := func() uint64 { return uint64(scrapeSeries(t, c.BaseURL)["hmem_sim_runs_total"]) }
	if got := simRuns(); got != 1 {
		t.Fatalf("hmem_sim_runs_total = %d after two concurrent identical requests, want 1", got)
	}

	// A third identical request is answered from the engine's block memo.
	if _, err := c.Evaluate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := simRuns(); got != 1 {
		t.Fatalf("hmem_sim_runs_total = %d after a repeat, want 1", got)
	}
}

// TestResultBytesIdenticalAcrossRestartAndParallelism: the same request body
// yields byte-identical response JSON across server restarts and at any
// Parallel setting (determinism is the repo's core invariant; the service
// must not launder it away).
func TestResultBytesIdenticalAcrossRestartAndParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	body := `{"workload":"astar","policies":["ddr-only","perf-focused"]}`
	fetch := func(cfg Config) string {
		t.Helper()
		_, c := newTestServer(t, cfg)
		resp, err := http.Post(c.BaseURL+"/v1/compare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	first := fetch(tinyConfig())
	second := fetch(tinyConfig()) // fresh Service = a restart
	serialCfg := tinyConfig()
	serialCfg.Defaults.Parallel = 1
	serial := fetch(serialCfg)

	if first != second {
		t.Fatalf("restart changed bytes:\n%s\nvs\n%s", first, second)
	}
	if first != serial {
		t.Fatalf("parallelism changed bytes:\n%s\nvs\n%s", first, serial)
	}
}

func TestJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := tinyConfig()
	cfg.Defaults.Workloads = []string{"astar"}
	_, c := newTestServer(t, cfg)
	ctx := context.Background()

	var events []JobEvent
	table, err := c.RunJob(ctx, JobRequest{Experiment: "figure5"}, func(ev JobEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Rows) == 0 {
		t.Fatal("job returned no table")
	}
	if !strings.Contains(table.Title, "Figure 5") {
		t.Fatalf("unexpected table: %q", table.Title)
	}
	// The NDJSON stream replays the full queued -> running -> done history,
	// interleaved with progress heartbeats (Progress set) while running.
	var states []string
	var transitions []JobEvent
	for _, ev := range events {
		if ev.Progress == nil {
			states = append(states, ev.State)
			transitions = append(transitions, ev)
			continue
		}
		if ev.State != JobRunning {
			t.Fatalf("progress heartbeat in state %q", ev.State)
		}
		if ev.Progress.Percent < 0 || ev.Progress.Percent > 1 {
			t.Fatalf("progress percent %v out of range", ev.Progress.Percent)
		}
	}
	want := []string{JobQueued, JobRunning, JobDone}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("transition states = %v, want %v", states, want)
	}
	for i, ev := range transitions {
		if ev.Seq != i+1 {
			t.Fatalf("transition %d has seq %d", i, ev.Seq)
		}
	}
}

func TestJobValidation(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()

	_, err := c.SubmitJob(ctx, JobRequest{Experiment: "not-an-experiment"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
	_, err = c.Job(ctx, "job-999")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want 404", err)
	}
}

// TestQueueFull: with no workers draining, submissions past QueueDepth get
// 429 and the overflow job is marked cancelled.
func TestQueueFull(t *testing.T) {
	cfg := tinyConfig()
	cfg.QueueDepth = 2
	cfg.JobWorkers = -1 // no drain
	svc, c := newTestServer(t, cfg)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429", err)
	}
	jobs, _ := svc.jobs.list(0, 0)
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	// list is newest-first, so the overflow job (submitted last) leads.
	if jobs[0].State != JobCancelled {
		t.Fatalf("overflow job state = %s, want cancelled", jobs[0].State)
	}
}

// TestShutdownDrainsQueuedJobs: Shutdown refuses new work with 503 but
// finishes jobs already queued (table1 is cheap — pure config, no sim).
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	svc, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	shutdownCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := svc.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The queued job completed during the drain.
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("job state after drain = %s (%s), want done", final.State, final.Error)
	}

	// New work is refused while draining/closed.
	_, err = c.Evaluate(ctx, EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("evaluate after shutdown: %v, want 503", err)
	}
	_, err = c.SubmitJob(ctx, JobRequest{Experiment: "table1"})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %v, want 503", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained = %d, want 503", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()
	req := EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly}
	if _, err := c.Evaluate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(ctx, req); err != nil { // answered from the memo
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)

	for _, want := range []string{
		"hmem_sim_runs_total 1",
		"hmemd_engine_memo_misses_total 1",
		"hmemd_job_queue_depth 0",
		`hmemd_jobs{state="queued"} 0`,
		`hmemd_requests_total{route="POST /v1/evaluate",code="200"} 2`,
		`hmemd_request_duration_seconds_count{route="POST /v1/evaluate"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q\n%s", want, page)
		}
	}
}

func TestClientRetriesIdempotentCalls(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"policies": []string{"ddr-only"}})
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retries: 3, Backoff: time.Millisecond}
	if _, err := c.Policies(context.Background()); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}

	// Non-idempotent submission must NOT retry.
	calls = 0
	_, err := c.SubmitJob(context.Background(), JobRequest{Experiment: "table1"})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 1 {
		t.Fatalf("SubmitJob retried: %d calls", calls)
	}

	// 4xx responses are not retryable either.
	calls = 0
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts2.Close()
	c2 := &Client{BaseURL: ts2.URL, Retries: 3, Backoff: time.Millisecond}
	if _, err := c2.Policies(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if calls != 1 {
		t.Fatalf("400 retried: %d calls", calls)
	}
}

// TestTopologiesEndpointAndThreeTierEvaluate covers the topology surface:
// GET /v1/topologies lists both built-ins with their tier summaries, and an
// evaluate with the dram-nvm topology returns a result carrying NVM
// endurance counters while the default topology result omits them.
func TestTopologiesEndpointAndThreeTierEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()

	topos, err := c.Topologies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]hmem.TopologySummary{}
	for _, tp := range topos {
		byName[tp.Name] = tp
	}
	def, ok := byName["hbm-ddr"]
	if !ok || len(def.Tiers) != 2 || def.FastTier != 1 {
		t.Fatalf("hbm-ddr summary = %+v", def)
	}
	dn, ok := byName["dram-nvm"]
	if !ok || len(dn.Tiers) != 3 || dn.FastTier != 2 {
		t.Fatalf("dram-nvm summary = %+v", dn)
	}
	if dn.Tiers[0].WriteBudget == 0 {
		t.Fatalf("dram-nvm NVM tier has no write budget: %+v", dn.Tiers[0])
	}

	res, err := c.Evaluate(ctx, EvaluateRequest{
		Workload: "astar", Policy: hmem.PolicyCCMigration,
		Options: &OptionsPatch{Topology: "dram-nvm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Endurance) != 1 || res.Endurance[0].Name != "NVM" {
		t.Fatalf("three-tier result endurance = %+v, want one NVM entry", res.Endurance)
	}

	// The default topology's wire format is unchanged: no endurance key.
	plain, err := c.Evaluate(ctx, EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Endurance != nil {
		t.Fatalf("default result carries endurance: %+v", plain.Endurance)
	}
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "endurance") {
		t.Fatalf("default result encoding grew an endurance field: %s", data)
	}

	// Unknown topology names are a client error, not a server fault.
	_, err = c.Evaluate(ctx, EvaluateRequest{
		Workload: "astar", Policy: hmem.PolicyDDROnly,
		Options: &OptionsPatch{Topology: "no-such"},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown topology err = %v, want 400", err)
	}
}
