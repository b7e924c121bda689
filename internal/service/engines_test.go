package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hmem"
)

// coldConfig is tinyConfig shrunk further: the engine tests below run
// dozens of cold evaluations, each with its own in-process reference.
func coldConfig() Config {
	return Config{Defaults: hmem.Options{RecordsPerCore: 1000, FaultTrials: 800}}
}

// seedReference evaluates one workload × policy on a fresh in-process engine
// for the given options seed — an engine with no shared study store.
func seedReference(t *testing.T, cfg Config, seed uint64, workloadName string, policy hmem.PolicyName) []byte {
	t.Helper()
	opts := cfg.Defaults
	opts.Seed = seed
	e, err := hmem.NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	return referenceJSON(t, referenceResult(t, e, workloadName, policy))
}

// seedEvaluate is the /v1/evaluate body for one workload × policy at an
// options seed.
func seedEvaluate(workloadName string, policy hmem.PolicyName, seed uint64) string {
	return fmt.Sprintf(`{"workload":%q,"policy":%q,"options":{"seed":%d}}`, workloadName, policy, seed)
}

// scrapeSeries reads the label-free series of the /metrics page.
func scrapeSeries(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// idleEngines counts live engines nobody holds.
func idleEngines(s *Service) (idle, live int) {
	s.engines.mu.Lock()
	defer s.engines.mu.Unlock()
	for _, en := range s.engines.byDigest {
		if en.refs == 0 {
			idle++
		}
	}
	return idle, len(s.engines.byDigest)
}

// TestColdEnginesBounded sends 3 × maxEngines evaluations, each with a
// unique options seed, through one service. The engine set stays within its
// bound, the tier fault studies run once for the whole stream, every body is
// byte-identical to a fresh in-process engine without a study store, and no
// engine-summed counter ever decreases as engines are retired.
func TestColdEnginesBounded(t *testing.T) {
	cfg := coldConfig()
	svc, c := newTestServer(t, cfg)
	monotonic := []string{
		"hmemd_engine_memo_hits_total", "hmemd_engine_memo_misses_total",
		"hmemd_trace_opens_total", "hmemd_coalesce_hits_total",
		"hmemd_engine_evictions_total", "hmemd_fault_studies_total",
	}
	prev := scrapeSeries(t, c.BaseURL)
	for i := 0; i < 3*maxEngines; i++ {
		seed := uint64(1000 + i)
		got := postRaw(t, c.BaseURL, "/v1/evaluate", seedEvaluate("astar", hmem.PolicyDDROnly, seed))
		if want := seedReference(t, cfg, seed, "astar", hmem.PolicyDDROnly); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: server bytes differ from the in-process engine\nserver: %s\nengine: %s", seed, got, want)
		}
		cur := scrapeSeries(t, c.BaseURL)
		for _, name := range monotonic {
			if cur[name] < prev[name] {
				t.Fatalf("after request %d %s fell from %v to %v", i, name, prev[name], cur[name])
			}
		}
		prev = cur
	}

	idle, live := idleEngines(svc)
	if idle > maxEngines || live > maxEngines {
		t.Fatalf("%d live engines (%d idle) after the stream, bound is %d", live, idle, maxEngines)
	}
	if got := prev["hmemd_engines"]; got != float64(live) {
		t.Fatalf("hmemd_engines = %v, want %d", got, live)
	}
	// The default engine plus 3·maxEngines seeds, of which maxEngines remain.
	if got, want := prev["hmemd_engine_evictions_total"], float64(2*maxEngines+1); got != want {
		t.Fatalf("hmemd_engine_evictions_total = %v, want %v", got, want)
	}
	// hbm-ddr has two tiers, each with its own study.
	if got := prev["hmemd_fault_studies_total"]; got != 2 {
		t.Fatalf("hmemd_fault_studies_total = %v after %d seeds, want 2 (one per tier)", got, 3*maxEngines)
	}
	if got := prev["hmemd_trace_opens_total"]; got != float64(3*maxEngines) {
		t.Fatalf("hmemd_trace_opens_total = %v, want one per request (%d)", got, 3*maxEngines)
	}
}

// TestHeldEngineSurvivesEviction: an engine whose evaluation is still
// running is never retired, however many cold option sets arrive, and its
// evaluation finishes with the right bytes.
func TestHeldEngineSurvivesEviction(t *testing.T) {
	cfg := coldConfig()
	reached, open := gatedTraces(&cfg)
	svc, c := newTestServer(t, cfg)
	t.Cleanup(open)

	const heldSeed = 7
	type reply struct {
		body []byte
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(c.BaseURL+"/v1/evaluate", "application/json",
			strings.NewReader(seedEvaluate("astar", hmem.PolicyDDROnly, heldSeed)))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		done <- reply{body, err}
	}()
	<-reached

	opts := cfg.Defaults
	opts.Seed = heldSeed
	probe, err := hmem.NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	digest := optionsDigest(probe.Options())
	for i := 0; i < 2*maxEngines; i++ {
		postRaw(t, c.BaseURL, "/v1/evaluate", seedEvaluate("mcf", hmem.PolicyDDROnly, uint64(100+i)))
	}
	svc.engines.mu.Lock()
	held := svc.engines.byDigest[digest]
	live := len(svc.engines.byDigest)
	svc.engines.mu.Unlock()
	if held == nil {
		t.Fatal("the held engine was retired while its evaluation ran")
	}
	if live > maxEngines {
		t.Fatalf("%d live engines with two held, bound is %d", live, maxEngines)
	}

	open()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := seedReference(t, cfg, heldSeed, "astar", hmem.PolicyDDROnly); !bytes.Equal(r.body, want) {
		t.Fatalf("held evaluation bytes differ from the in-process engine\nserver: %s\nengine: %s", r.body, want)
	}
}

// TestWarmStudyPricedFree: once the shared store holds the tier studies, a
// cold option set's evaluation costs only its simulation half — 0.5 of a
// default unit instead of 1.
func TestWarmStudyPricedFree(t *testing.T) {
	cfg := coldConfig()
	reached, open := gatedTraces(&cfg)
	svc, c := newTestServer(t, cfg)
	t.Cleanup(open)

	postRaw(t, c.BaseURL, "/v1/evaluate", seedEvaluate("mcf", hmem.PolicyDDROnly, 11))
	errc := make(chan error, 1)
	go func() {
		_, err := c.Evaluate(t.Context(), EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly,
			Options: &OptionsPatch{Seed: 12}})
		errc <- err
	}()
	<-reached
	if got := svc.adm.inflight(); got != 0.5 {
		t.Fatalf("in-flight cost of a new-seed evaluate with the study warm = %v, want 0.5", got)
	}
	open()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return svc.adm.inflight() == 0 })
}
