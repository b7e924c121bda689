package sim

import (
	"context"
	"testing"

	"hmem/internal/avf"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// BenchmarkPlacementLookupIndex measures the warm page-location lookup on
// the flat flags/frame arrays.
func BenchmarkPlacementLookupIndex(b *testing.B) {
	p := NewTopologyPlacement(twoTierTopo(1024, 16384))
	const pages = 8192
	for pg := uint64(0); pg < pages; pg++ {
		p.Lookup(pg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi := p.Intern(uint64(i % pages))
		p.LookupIndex(pi)
	}
}

// BenchmarkPerAccessPath measures the full per-access bookkeeping chain the
// simulator core executes for one trace record (excluding the DRAM timing
// model): intern, placement lookup, AVF tracking, interval hotness.
func BenchmarkPerAccessPath(b *testing.B) {
	p := NewTopologyPlacement(twoTierTopo(1024, 16384))
	tracker := avf.NewTracker(2)
	iv := newIntervalState()
	const pages = 8192
	var now int64
	for pg := uint64(0); pg < pages; pg++ {
		pi := p.Intern(pg)
		tier, _, _ := p.LookupIndex(pi)
		now++
		tracker.Access(uint32(pi), int(pg%64), now, false, tier)
		iv.observe(pi, false, tier == avf.TierHBM)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := uint64(i % pages)
		pi := p.Intern(pg)
		tier, _, _ := p.LookupIndex(pi)
		now++
		write := i%3 == 0
		tracker.Access(uint32(pi), int(pg%64), now, write, tier)
		iv.observe(pi, write, tier == avf.TierHBM)
	}
}

// BenchmarkPerAccessPathThreeTier is the same chain over a three-tier
// topology with endurance accounting live: spilled placement, N-tier AVF
// attribution, and the RecordWrite wear path. Gated alongside the two-tier
// bench to keep the topology generalization honest.
func BenchmarkPerAccessPathThreeTier(b *testing.B) {
	p := NewTopologyPlacement(threeTierTopo(16384, 4096, 1024))
	tracker := avf.NewTracker(p.NumTiers())
	iv := newIntervalState()
	fast := avf.Tier(p.FastTier())
	const pages = 8192
	var now int64
	for pg := uint64(0); pg < pages; pg++ {
		pi := p.Intern(pg)
		tier, frame, _ := p.LookupIndex(pi)
		now++
		p.RecordWrite(tier, frame)
		tracker.Access(uint32(pi), int(pg%64), now, false, tier)
		iv.observe(pi, false, tier == fast)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := uint64(i % pages)
		pi := p.Intern(pg)
		tier, frame, _ := p.LookupIndex(pi)
		now++
		write := i%3 == 0
		if write {
			p.RecordWrite(tier, frame)
		}
		tracker.Access(uint32(pi), int(pg%64), now, write, tier)
		iv.observe(pi, write, tier == fast)
	}
}

// BenchmarkRunReplay measures the whole simulator per trace record: astar is
// recorded once (16 cores × 4k records) and every iteration replays the
// recording through RunCtx on the default machine, as the experiments'
// memoized runs do. It reports ns/record.
func BenchmarkRunReplay(b *testing.B) {
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
	for i, g := range suite.Generators {
		recs[i] = g.Record()
	}
	cfg := DefaultConfig(64)
	streams := make([]trace.Stream, len(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, r := range recs {
			streams[c] = r.Stream()
		}
		if _, err := RunCtx(context.Background(), cfg, streams, nil, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records*len(recs)), "ns/record")
}
