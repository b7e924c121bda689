package experiments

import (
	"context"
	"errors"
	"io"
	"testing"

	"hmem/internal/core"
	"hmem/internal/sim"
)

// TestMemoizedRunsHoldNoSnapshot bounds what the run memo keeps: after
// Figures 5 and 12, every block they ran, requested again (each request a
// memo hit), is a scored result without a per-page snapshot, and each
// profile keeps one stats entry per page its workload touches.
func TestMemoizedRunsHoldNoSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	opts := blockTestOptions()
	opts.Workloads = []string{"astar", "mcf"}
	r := mustRunner(t, opts)
	for _, id := range []string{"figure5", "figure12"} {
		if _, err := r.RunExperiment(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	misses := r.CacheStats().Misses
	check := func(what string, res sim.Result) {
		t.Helper()
		if res.Snapshot != nil {
			t.Errorf("%s: memoized result keeps a %d-page snapshot", what, len(res.Snapshot))
		}
		if res.SER <= 0 || res.SERAllDDR <= 0 || res.MeanAVF <= 0 {
			t.Errorf("%s: unscored result (SER %v, all-DDR %v, mean AVF %v)", what, res.SER, res.SERAllDDR, res.MeanAVF)
		}
	}
	for _, spec := range r.Workloads() {
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		check(spec.Name+" profile", prof.Result)
		suite, err := r.buildSuiteCtx(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		touched := map[uint64]bool{}
		for _, s := range suite.streams {
			for {
				rec, err := s.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				touched[rec.Page()] = true
			}
		}
		if len(prof.Stats) != len(touched) {
			t.Errorf("%s profile: %d stats entries, want one per touched page (%d)", spec.Name, len(prof.Stats), len(touched))
		}
		for _, p := range prof.Stats {
			if !touched[p.Page] {
				t.Errorf("%s profile: stats for untouched page %d", spec.Name, p.Page)
				break
			}
		}

		static, err := r.RunStatic(ctx, spec, core.PerfFocused{})
		if err != nil {
			t.Fatal(err)
		}
		check(spec.Name+" static", static)
		dyn, err := r.result(ctx, spec, BlockDynamic, mechPerf)
		if err != nil {
			t.Fatal(err)
		}
		check(spec.Name+" dynamic", dyn)
	}
	if got := r.CacheStats().Misses; got != misses {
		t.Fatalf("re-requests started %d new computations, want only memo hits", got-misses)
	}
}
