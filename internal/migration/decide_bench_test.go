package migration

import (
	"testing"

	"hmem/internal/sim"
)

// decideTurn binds mig to a placement holding a 2048-page working set and
// returns one interval turnover: feeding every page's access and taking the
// migration decision for interval i.
func decideTurn(mig sim.Migrator) func(i int) {
	placement := sim.NewPlacement(256, 8192)
	mig.Bind(placement.PageTable())
	const pages = 2048
	for pg := uint64(0); pg < pages; pg++ {
		placement.Lookup(pg)
	}
	return func(i int) {
		for pg := uint64(0); pg < pages; pg++ {
			pi := placement.Intern(pg)
			mig.OnAccess(pi, pg%3 == 0, placement.InHBMIndex(pi))
		}
		in, out := mig.Decide(int64(i+1)*100000, placement)
		placement.Migrate(in, out)
	}
}

// decideCases are the benchmarked mechanisms with their pinned allocations
// per interval turnover.
var decideCases = []struct {
	name   string
	build  func() sim.Migrator
	allocs float64
}{
	{"perf-baseline", func() sim.Migrator { return NewPerf(100000) }, 14},
	{"full-counter", func() sim.Migrator { return NewFullCounter(100000) }, 14},
	{"cross-counter", func() sim.Migrator { return NewCrossCounter(100000, 4, 32) }, 4},
}

func BenchmarkMigratorDecide(b *testing.B) {
	for _, c := range decideCases {
		b.Run(c.name, func(b *testing.B) {
			turn := decideTurn(c.build())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				turn(i)
			}
		})
	}
}

// TestMigratorDecideAllocs pins each mechanism's allocations per interval
// turnover at today's counts, so an allocating regression in the decide path
// fails here rather than surfacing as a slower figure suite.
func TestMigratorDecideAllocs(t *testing.T) {
	for _, c := range decideCases {
		turn := decideTurn(c.build())
		i := 0
		got := testing.AllocsPerRun(50, func() { turn(i); i++ })
		if got > c.allocs {
			t.Errorf("%s: %v allocs per turnover, want <= %v", c.name, got, c.allocs)
		}
	}
}
