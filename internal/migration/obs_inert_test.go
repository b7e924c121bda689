package migration

import (
	"context"
	"reflect"
	"testing"

	"hmem/internal/core"
	"hmem/internal/obs"
	"hmem/internal/sim"
	"hmem/internal/trace"
)

// This file extends the differential suite to the observability layer:
// tracing and metrics must be pure observers. A run with a tracer, a
// registry, and a span exporter installed must make byte-identical migration
// decisions and produce byte-identical results to the same run without them
// — and it must actually emit the spans it promises (one sim.epoch per
// interval boundary).

func diffRunCtx(t *testing.T, ctx context.Context, recs [][]trace.Record, mig *decisionRecorder) sim.Result {
	t.Helper()
	cfg := sim.Config{
		Topology:       twoTierTopo(64, 4096),
		IssueWidth:     4,
		MaxOutstanding: 8,
	}
	streams := make([]trace.Stream, len(recs))
	for i, r := range recs {
		streams[i] = trace.NewSliceStream(r)
	}
	// diffTrace draws every core's pages from [0, 300).
	pages := []core.PageRange{{First: 0, Count: 300}}
	res, err := sim.RunCtx(ctx, cfg, pages, streams, []uint64{0, 1, 2, 3}, true, mig)
	if err != nil {
		t.Fatalf("sim.RunCtx: %v", err)
	}
	return res
}

// TestTracingInertOnDecisions runs every mechanism on identical seeded
// traces twice — tracing off (sim.Run) and tracing fully on (tracer into a
// ring) — and requires identical decision sequences,
// IPC, cycles, migration counts, and AVF snapshots.
func TestTracingInertOnDecisions(t *testing.T) {
	mechanisms := []struct {
		name string
		mk   func() sim.Migrator
	}{
		{"perf-baseline", func() sim.Migrator { return NewPerf(20000) }},
		{"full-counter", func() sim.Migrator { return NewFullCounter(20000) }},
		{"cross-counter", func() sim.Migrator { return NewCrossCounter(5000, 4, 8) }},
	}
	for _, tc := range mechanisms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				recs := diffTrace(seed, 2, 6000)

				offRec := &decisionRecorder{m: tc.mk()}
				off := diffRun(t, recs, offRec)

				ring := obs.NewRing(1 << 14)
				tracer := obs.NewTracer("inert-test", ring)
				ctx := obs.WithTracer(context.Background(), tracer)
				onRec := &decisionRecorder{m: tc.mk()}
				on := diffRunCtx(t, ctx, recs, onRec)

				if len(offRec.decisions) != len(onRec.decisions) {
					t.Fatalf("seed %d: %d decisions untraced vs %d traced",
						seed, len(offRec.decisions), len(onRec.decisions))
				}
				for i := range offRec.decisions {
					a, b := offRec.decisions[i], onRec.decisions[i]
					if !reflect.DeepEqual(a.in, b.in) || !reflect.DeepEqual(a.out, b.out) {
						t.Fatalf("seed %d: decision %d diverges under tracing:\n off in=%v out=%v\n  on in=%v out=%v",
							seed, i, a.in, a.out, b.in, b.out)
					}
				}
				if off.IPC != on.IPC || off.Cycles != on.Cycles {
					t.Errorf("seed %d: IPC/cycles %v/%d untraced vs %v/%d traced",
						seed, off.IPC, off.Cycles, on.IPC, on.Cycles)
				}
				if off.PagesMigrated != on.PagesMigrated {
					t.Errorf("seed %d: migrated %d untraced vs %d traced",
						seed, off.PagesMigrated, on.PagesMigrated)
				}
				if !reflect.DeepEqual(off.Snapshot, on.Snapshot) {
					t.Errorf("seed %d: AVF snapshots diverge under tracing", seed)
				}

				// The traced run must also deliver its spans: one sim.run,
				// and one sim.epoch per interval boundary it reported.
				if d := tracer.Dropped(); d != 0 {
					t.Fatalf("seed %d: %d spans dropped by an in-memory ring", seed, d)
				}
				spans := ring.Snapshot("inert-test")
				var runs, epochs int
				for _, sp := range spans {
					switch sp.Name {
					case "sim.run":
						runs++
					case "sim.epoch":
						epochs++
					}
				}
				if runs != 1 {
					t.Fatalf("seed %d: %d sim.run spans, want 1", seed, runs)
				}
				// The trailing partial epoch's span is ended at run close, so
				// the count is boundaries + 1.
				if want := len(on.Intervals) + 1; epochs != want {
					t.Fatalf("seed %d: %d sim.epoch spans for %d boundaries, want %d",
						seed, epochs, len(on.Intervals), want)
				}
			}
		})
	}
}
