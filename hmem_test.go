package hmem

import (
	"context"
	"testing"
)

func quickOpts() *Options {
	return &Options{RecordsPerCore: 6000, FaultTrials: 5000}
}

func TestWorkloadAndPolicyLists(t *testing.T) {
	if len(Workloads()) != 14 {
		t.Fatalf("Workloads() = %d, want 14", len(Workloads()))
	}
	if len(Benchmarks()) != 17 {
		t.Fatalf("Benchmarks() = %d, want 17", len(Benchmarks()))
	}
	if len(Policies()) != 10 {
		t.Fatalf("Policies() = %d, want 10", len(Policies()))
	}
}

func TestEvaluateUnknowns(t *testing.T) {
	if _, err := Evaluate(context.Background(), "nope", PolicyPerfFocused, quickOpts()); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Evaluate(context.Background(), "astar", PolicyName("nope"), quickOpts()); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestEvaluateDDROnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	res, err := Evaluate(context.Background(), "astar", PolicyDDROnly, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if res.IPCvsDDROnly < 0.999 || res.IPCvsDDROnly > 1.001 {
		t.Fatalf("DDR-only vs itself = %v", res.IPCvsDDROnly)
	}
	if res.SERvsDDROnly < 0.999 || res.SERvsDDROnly > 1.001 {
		t.Fatalf("DDR-only SER vs itself = %v", res.SERvsDDROnly)
	}
	if res.MeanAVF <= 0 || res.MeanAVF >= 1 {
		t.Fatalf("MeanAVF = %v", res.MeanAVF)
	}
}

func TestCompareSharesBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	results, err := Compare(context.Background(), "astar", []PolicyName{
		PolicyPerfFocused, PolicyWr2Ratio, PolicyCCMigration, PolicyAnnotation,
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	perf := results[0]
	if perf.IPCvsDDROnly <= 1 {
		t.Errorf("perf-focused should beat DDR-only: %.2fx", perf.IPCvsDDROnly)
	}
	if perf.SERvsDDROnly <= 1 {
		t.Errorf("perf-focused should raise SER: %.2fx", perf.SERvsDDROnly)
	}
	wr2 := results[1]
	if wr2.SERvsDDROnly >= perf.SERvsDDROnly {
		t.Errorf("Wr2 should lower SER vs perf-focused: %.1f vs %.1f",
			wr2.SERvsDDROnly, perf.SERvsDDROnly)
	}
	cc := results[2]
	if cc.PagesMigrated == 0 {
		t.Error("CC migration never migrated")
	}
	for _, r := range results {
		if r.Workload != "astar" {
			t.Errorf("workload mislabeled: %+v", r)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	a, err := Evaluate(context.Background(), "gcc", PolicyBalanced, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(context.Background(), "gcc", PolicyBalanced, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.SERvsDDROnly != b.SERvsDDROnly {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestExperimentIDsAllocs: listing the experiments builds no table. Every
// hmemd job submission and GET /v1/experiments lists them, and the static
// tables cost over 200 allocations to render.
func TestExperimentIDsAllocs(t *testing.T) {
	e, err := NewEngine(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.ExperimentIDs()); n != 23 {
		t.Fatalf("ExperimentIDs lists %d experiments, want 23", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.ExperimentIDs() }); allocs > 64 {
		t.Fatalf("ExperimentIDs = %.0f allocs/call, want <= 64", allocs)
	}
}
