package migration

import (
	"context"
	"testing"

	"hmem/internal/core"
	"hmem/internal/sim"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// decideTurn binds mig to a placement holding a 2048-page working set and
// returns one interval turnover: feeding every page's access and taking the
// migration decision for interval i.
func decideTurn(mig sim.Migrator) func(i int) {
	const pages = 2048
	placement := newPlacement(twoTierTopo(256, 8192), mig)
	for pg := uint64(0); pg < pages; pg++ {
		placement.Lookup(pg)
	}
	return func(i int) {
		for pg := uint64(0); pg < pages; pg++ {
			pi, _ := placement.PageTable().Index(pg)
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

// BenchmarkRunReplayFC is sim's BenchmarkRunReplay with the Full Counter
// mechanism attached: astar is recorded once (16 cores × 4k records) and
// every iteration replays it through RunCtx on the default machine with a
// fresh FullCounter at the experiments' default 400k-cycle interval, so
// the per-access counters and the per-interval snapshot have a cost per
// record. It reports ns/record.
func BenchmarkRunReplayFC(b *testing.B) {
	const records = 4000
	spec, err := workload.SpecByName("astar")
	if err != nil {
		b.Fatal(err)
	}
	suite, err := spec.Build(records, 1)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]*workload.Recording, len(suite.Generators))
	ranges := make([]core.PageRange, len(recs))
	for i, g := range suite.Generators {
		recs[i] = g.Record()
		ranges[i].First, ranges[i].Count = recs[i].Pages()
	}
	cfg := sim.DefaultConfig(64)
	streams := make([]trace.Stream, len(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, r := range recs {
			streams[c] = r.Stream()
		}
		if _, err := sim.RunCtx(context.Background(), cfg, ranges, streams, nil, false, NewFullCounter(400_000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records*len(recs)), "ns/record")
}
