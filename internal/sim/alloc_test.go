package sim

import (
	"fmt"
	"runtime"
	"testing"

	"hmem/internal/workload"
)

// TestRunAllocationBudget bounds the transient allocation of one profiling
// run: the AVF tracker's line timestamps follow the lines a run touches
// rather than its pages, and the per-core read window and posted-write ring
// reuse their arrays, so a run allocates its touched-line state, per-page
// arrays sized once for the footprint, and little else. At 20k records per
// core this run allocates about 3.9 MB in 1.3k mallocs, and 2.6 MB at 4k,
// the size hmemd runs under cold traffic. Keeping 64 line timestamps for
// every page took 9.0 and 4.9 MB, and queues that reallocate as they slide
// push the 20k run past 28 MB and 60k mallocs.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run")
	}
	for _, c := range []struct {
		records int
		maxMB   float64
	}{
		{20000, 7},
		{4000, 4},
	} {
		t.Run(fmt.Sprintf("records=%d", c.records), func(t *testing.T) {
			spec, err := workload.SpecByName("astar")
			if err != nil {
				t.Fatal(err)
			}
			suite, err := spec.Build(c.records, 1)
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
			if mb := float64(bytes) / 1e6; mb >= c.maxMB {
				t.Errorf("run allocated %.1f MB, want < %.1f MB", mb, c.maxMB)
			}
			if mallocs >= 3000 {
				t.Errorf("run made %d mallocs, want < 3000", mallocs)
			}
		})
	}
}
