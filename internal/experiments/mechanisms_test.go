package experiments

import (
	"context"
	"testing"
)

// TestMechanismsShareMemo: every distinct migrator configuration runs under
// one memo key. After Figures 14 and 15 have run the drivers' mechanisms,
// the facade's fc-migration and cc-migration, AblationCC's full variant and
// Figure 13's base interval must all be memo hits: only the ablation's other
// variants and Figure 13's other intervals simulate anew.
func TestMechanismsShareMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	opts := DefaultOptions()
	// AblationCC's panel plus Figure 13's workloads, so Figures 14 and 15
	// run perf migration on every workload either driver touches.
	opts.Workloads = []string{"astar", "mcf", "mix1", "libquantum", "soplex"}
	opts.RecordsPerCore = 4000
	r := mustRunner(t, opts)
	for _, id := range []string{"figure14", "figure15"} {
		if _, err := r.RunExperiment(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	misses := func() uint64 { return r.CacheStats().Misses }
	before := misses()
	for _, p := range []PolicyName{PolicyFCMigration, PolicyCCMigration} {
		if _, err := r.Evaluate(ctx, "astar", p); err != nil {
			t.Fatal(err)
		}
	}
	if got := misses() - before; got != 0 {
		t.Errorf("evaluating fc-migration and cc-migration ran %d simulations after Figures 14 and 15, want 0", got)
	}

	before = misses()
	if _, err := r.AblationCC(ctx); err != nil {
		t.Fatal(err)
	}
	// Three variants besides the full mechanism, on a three-workload panel.
	if got, want := misses()-before, uint64(3*3); got != want {
		t.Errorf("AblationCC ran %d simulations, want %d (its full variant is cc-reliability)", got, want)
	}

	before = misses()
	if _, err := r.Figure13(ctx); err != nil {
		t.Fatal(err)
	}
	// Five intervals besides the base one, on three workloads.
	if got, want := misses()-before, uint64(5*3); got != want {
		t.Errorf("Figure 13 ran %d simulations, want %d (its base interval is perf-migration)", got, want)
	}
}
