package sim

import (
	"runtime"
	"testing"

	"hmem/internal/workload"
)

// TestRunAllocationBudget bounds the transient allocation of one profiling
// run: the AVF tracker grows in chunks without copying, and the per-core
// read window and posted-write ring reuse their arrays, so a run allocates
// its footprint-sized state and little else. This run allocates about 9 MB
// in 1.4k mallocs; a tracker that copies on growth or queues that
// reallocate as they slide push it past 28 MB and 60k mallocs.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run")
	}
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.Build(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	streams := suite.Streams()
	cfg := DefaultConfig(64)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, streams, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one run allocated %.1f MB in %d mallocs", float64(bytes)/1e6, mallocs)
	if bytes >= 14e6 {
		t.Errorf("run allocated %.1f MB, want < 14 MB", float64(bytes)/1e6)
	}
	if mallocs >= 3000 {
		t.Errorf("run made %d mallocs, want < 3000", mallocs)
	}
}
