package sim

import (
	"context"
	"testing"

	"hmem/internal/avf"
	"hmem/internal/core"
	"hmem/internal/obs"
)

// TestPerAccessPathZeroAllocs verifies the invariant of the flat hot-path
// layout: with every per-page slice sized for the page table and the
// working set touched once, an access performs no heap allocation in any
// of the per-access structures (placement lookup, AVF tracking, interval
// hotness tracking).
func TestPerAccessPathZeroAllocs(t *testing.T) {
	const pages = 256
	p := newTestPlacement(twoTierTopo(32, 1024), pages)
	tracker := avf.NewTracker(2, pages)
	iv := newIntervalState(pages)

	// Warm: touch every structure so backing storage reaches steady
	// state, and run one interval boundary so the hot-set scratch is
	// sized too.
	var now int64
	touch := func() {
		for pg := uint64(0); pg < pages; pg++ {
			pi := mustIndex(p, pg)
			tier, _, _ := p.LookupIndex(pi)
			now++
			write := pg%3 == 0
			tracker.Access(uint32(pi), int(pg%64), now, write, tier)
			iv.observe(pi, write, tier == avf.TierHBM)
		}
	}
	touch()
	iv.sample(now, 0)
	touch()

	pg := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		pi := mustIndex(p, pg)
		tier, _, _ := p.LookupIndex(pi)
		now++
		tracker.Access(uint32(pi), int(pg%64), now, pg%3 == 0, tier)
		iv.observe(pi, pg%3 == 0, tier == avf.TierHBM)
		pg = (pg + 1) % pages
	})
	if allocs != 0 {
		t.Fatalf("per-access path allocated %.1f times per access; want 0", allocs)
	}
}

// TestObsDisabledAddsZeroAllocs re-runs the per-access gate with every
// observability seam RunCtx threads through the loop present in its
// DISABLED state: the once-per-run Enabled/registry resolution resolved
// against a bare context, the nil-counter guards, and nil-safe span calls.
// Tracing compiled in but switched off must cost zero allocations per
// access — the PR-3 hot-path invariant survives the observability layer.
func TestObsDisabledAddsZeroAllocs(t *testing.T) {
	ctx := context.Background()
	traced := obs.Enabled(ctx)
	if traced {
		t.Fatal("bare context reports tracing enabled")
	}
	metrics := newSimMetrics(ctx)
	var epochSpan *obs.Span

	const pages = 256
	p := newTestPlacement(twoTierTopo(32, 1024), pages)
	tracker := avf.NewTracker(2, pages)
	iv := newIntervalState(pages)
	var now int64
	touch := func() {
		for pg := uint64(0); pg < pages; pg++ {
			pi := mustIndex(p, pg)
			tier, _, _ := p.LookupIndex(pi)
			now++
			write := pg%3 == 0
			tracker.Access(uint32(pi), int(pg%64), now, write, tier)
			iv.observe(pi, write, tier == avf.TierHBM)
		}
	}
	touch()
	iv.sample(now, 0)
	touch()

	pg := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		// The disabled observability seams, exactly as RunCtx guards them.
		if metrics.epochs != nil {
			metrics.epochs.Inc()
			metrics.migrated.Add(1)
		}
		if traced {
			epochSpan.End()
			_, epochSpan = obs.Start(ctx, "sim.epoch")
		}
		epochSpan.End() // nil-safe no-op outside the guard too

		pi := mustIndex(p, pg)
		tier, _, _ := p.LookupIndex(pi)
		now++
		tracker.Access(uint32(pi), int(pg%64), now, pg%3 == 0, tier)
		iv.observe(pi, pg%3 == 0, tier == avf.TierHBM)
		pg = (pg + 1) % pages
	})
	if allocs != 0 {
		t.Fatalf("per-access path with disabled tracing allocated %.1f times per access; want 0", allocs)
	}
	if metrics.runs != nil {
		metrics.runs.Inc()
	}
}

// TestIntervalSampleReusesStorage checks that interval boundaries (sample +
// the epoch-based reset) settle into an allocation-free steady state once
// the hot-set scratch has grown to the working set.
func TestIntervalSampleReusesStorage(t *testing.T) {
	const pages = 64
	iv := newIntervalState(pages)
	var now int64
	warm := func() {
		for pg := core.PageIndex(0); pg < pages; pg++ {
			iv.observe(pg, pg%2 == 0, pg%4 == 0)
		}
		now += 1000
		iv.sample(now, 0)
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("interval sample allocated %.1f times per interval; want 0", allocs)
	}
}
