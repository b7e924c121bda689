package load

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sampleSummary() *Summary {
	return &Summary{
		Profile: "mixed", Seed: 1, AchievedRPS: 120,
		Classes: map[string]ClassSummary{
			"evaluate": {
				Requests: 100, ErrorRate: 0.01,
				Outcomes: map[string]uint64{OutcomeOK: 99, OutcomeHTTP5xx: 1},
				P50MS:    4, P90MS: 9, P99MS: 30, P999MS: 45,
			},
			"submit": {
				Requests: 50, ErrorRate: 0,
				Outcomes: map[string]uint64{OutcomeOK: 50},
				P50MS:    10, P90MS: 20, P99MS: 60, P999MS: 80,
			},
		},
	}
}

// TestSLOEvaluate covers each budget axis: a spec the summary meets passes,
// and each violated axis surfaces as exactly one named violation.
func TestSLOEvaluate(t *testing.T) {
	sum := sampleSummary()

	pass := &SLO{
		MaxErrorRate:     ptr(0.05),
		MinThroughputRPS: 50,
		Classes: map[string]ClassSLO{
			"evaluate": {MaxP99MS: 100, MaxErrorRate: ptr(0.05), MinRequests: 10},
			"submit":   {MaxP50MS: 50},
		},
	}
	if v := pass.Evaluate(sum); len(v) != 0 {
		t.Fatalf("healthy summary failed: %v", v)
	}

	cases := []struct {
		name   string
		spec   *SLO
		target string
		metric string
	}{
		{"global error rate", &SLO{MaxErrorRate: ptr(0.001)}, "run", "error_rate"},
		{"throughput floor", &SLO{MinThroughputRPS: 1e6}, "run", "achieved_rps"},
		{"class p99", &SLO{Classes: map[string]ClassSLO{"evaluate": {MaxP99MS: 1}}}, "evaluate", "p99_ms"},
		{"class error rate", &SLO{Classes: map[string]ClassSLO{"evaluate": {MaxErrorRate: ptr(0.0)}}}, "evaluate", "error_rate"},
		{"class coverage", &SLO{Classes: map[string]ClassSLO{"evaluate": {MinRequests: 1000}}}, "evaluate", "requests"},
		{"absent class", &SLO{Classes: map[string]ClassSLO{"watch": {MinRequests: 1}}}, "watch", "requests"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.spec.Evaluate(sum)
			if len(v) != 1 {
				t.Fatalf("violations = %v, want exactly one", v)
			}
			if v[0].Target != tc.target || v[0].Metric != tc.metric {
				t.Fatalf("violation = %v, want %s/%s", v[0], tc.target, tc.metric)
			}
			if v[0].String() == "" {
				t.Fatal("violation renders empty")
			}
		})
	}

	// A budget a class can never meet — the "impossible SLO" acceptance pin:
	// any real run must fail it.
	impossible := &SLO{Classes: map[string]ClassSLO{"evaluate": {MaxP99MS: 1e-9, MinRequests: 1}}}
	if v := impossible.Evaluate(sum); len(v) == 0 {
		t.Fatal("impossible SLO passed")
	}
}

// TestLoadSLOFile: round trip through disk, plus loud rejection of unknown
// fields (a typo'd budget must not pass vacuously).
func TestLoadSLOFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(good, []byte(`{
		"note": "ci gate",
		"max_error_rate": 0.02,
		"min_throughput_rps": 5,
		"classes": {"evaluate": {"max_p99_ms": 500, "min_requests": 3}},
		"degraded": {"max_error_rate": 0.3}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSLO(good)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MaxErrorRate == nil || *spec.MaxErrorRate != 0.02 || spec.Degraded == nil {
		t.Fatalf("parsed spec lost fields: %+v", spec)
	}
	if spec.Pick(true) != spec.Degraded || spec.Pick(false) != spec {
		t.Fatal("Pick selected the wrong budget")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"max_p99_millis": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSLO(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestExecutionContextRoundTrip: absorb, save, load, check.
func TestExecutionContextRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ctx.json")

	var ec ExecutionContext
	segA := &Summary{
		Profile: "mixed", Seed: 4, Ops: 10, NextOp: 10, ElapsedSeconds: 1.5,
		Classes: map[string]ClassSummary{
			"evaluate": {Requests: 10, Outcomes: map[string]uint64{OutcomeOK: 9, OutcomeHTTP503: 1}},
		},
	}
	segB := &Summary{
		Profile: "mixed", Seed: 4, Ops: 5, NextOp: 15, ElapsedSeconds: 0.5,
		Classes: map[string]ClassSummary{
			"evaluate": {Requests: 5, Outcomes: map[string]uint64{OutcomeOK: 5}},
		},
	}
	ec.Absorb(segA)
	ec.Absorb(segB)
	if err := ec.Save(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadContext(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextOp != 15 || got.Ops != 15 || got.Segments != 2 {
		t.Fatalf("context = %+v", got)
	}
	if got.ElapsedSeconds != 2.0 {
		t.Fatalf("elapsed = %v, want 2.0", got.ElapsedSeconds)
	}
	if got.Outcomes["evaluate"][OutcomeOK] != 14 || got.Outcomes["evaluate"][OutcomeHTTP503] != 1 {
		t.Fatalf("outcomes = %v", got.Outcomes)
	}
	if got.UpdatedAt.IsZero() || time.Since(got.UpdatedAt) > time.Hour {
		t.Fatalf("updated_at = %v", got.UpdatedAt)
	}

	if err := got.Check("mixed", 4); err != nil {
		t.Fatalf("matching check failed: %v", err)
	}
	if err := got.Check("mixed", 5); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if err := got.Check("sync", 4); err == nil {
		t.Fatal("profile mismatch accepted")
	}
}
