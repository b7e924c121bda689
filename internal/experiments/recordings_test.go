package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/sim"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// tinyRecordingOpts keeps recording tests fast: short traces, few trials.
func tinyRecordingOpts() Options {
	return Options{RecordsPerCore: 1500, FaultTrials: 1500}
}

// TestRecordingReplaysAcrossPolicies is the recording's contract: on a
// fresh runner, a workload's profile and five static policies cost one
// trace recording and five replays, with results identical to simulations
// over fresh generators.
func TestRecordingReplaysAcrossPolicies(t *testing.T) {
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	policies := []core.Policy{core.PerfFocused{}, core.ReliabilityFocused{}, core.Balanced{}, core.WrRatio{}, core.Wr2Ratio{}}
	ctx := context.Background()
	r := mustRunner(t, tinyRecordingOpts())

	prof, err := r.ProfileOf(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	got := []sim.Result{prof.Result}
	for _, p := range policies {
		res, err := r.RunStatic(ctx, spec, p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if st := r.TraceStats(); st.Opens != 1 || st.CoalesceHits != uint64(len(policies)) {
		t.Fatalf("trace stats = %+v, want 1 open and %d replays", st, len(policies))
	}

	fresh := func(pages []uint64) sim.Result {
		suite, err := spec.Build(r.opts.RecordsPerCore, r.opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(r.cfg, suite.Streams(), pages, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := fresh(nil)
	want := []sim.Result{ref}
	for _, p := range policies {
		want = append(want, fresh(p.Select(ref.Stats(), int(r.cfg.FastPages()))))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("simulation %d over the recording differs from one over fresh generators", i)
		}
	}
}

// TestRecordingRejectsInvalidSpec: an invalid spec fails its simulation
// before anything is recorded, and the failure is not kept.
func TestRecordingRejectsInvalidSpec(t *testing.T) {
	r := mustRunner(t, tinyRecordingOpts())
	for i := 0; i < 2; i++ {
		if _, err := r.ProfileOf(context.Background(), workload.Spec{Name: "no-such-workload"}); err == nil {
			t.Fatal("expected an error for an invalid spec")
		}
	}
	if st := r.TraceStats(); st.Opens != 0 || r.RecordingBytes() != 0 {
		t.Fatalf("invalid spec recorded: stats %+v, %d bytes", st, r.RecordingBytes())
	}
}

// TestRecordingEviction: past the byte budget the oldest recording is
// dropped, and the next simulation of its workload records it again.
func TestRecordingEviction(t *testing.T) {
	ctx := context.Background()
	names := []string{"astar", "mcf", "lbm"}
	specs := make([]workload.Spec, len(names))
	sizes := make([]int64, len(names))
	probe := mustRunner(t, tinyRecordingOpts())
	for i, name := range names {
		specs[i], _ = workload.SpecByName(name)
		rec, err := probe.record(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = rec.bytes
	}
	// The two newest fit; all three do not.
	defer func(b int64) { recordingBudget = b }(recordingBudget)
	recordingBudget = sizes[1] + max(sizes[0], sizes[2])

	r := mustRunner(t, tinyRecordingOpts())
	for _, spec := range specs {
		if _, err := r.ProfileOf(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.TraceStats(); st.Opens != 3 {
		t.Fatalf("opens = %d after three workloads, want 3", st.Opens)
	}
	if got, want := r.RecordingBytes(), sizes[1]+sizes[2]; got != want {
		t.Fatalf("kept %d bytes, want the two newest recordings (%d)", got, want)
	}
	// mcf is still kept: its next simulation replays.
	if _, err := r.RunStatic(ctx, specs[1], core.Balanced{}); err != nil {
		t.Fatal(err)
	}
	if st := r.TraceStats(); st.Opens != 3 || st.CoalesceHits != 1 {
		t.Fatalf("trace stats = %+v after an mcf run, want 3 opens and 1 replay", st)
	}
	// astar was evicted: its next simulation records it again.
	if _, err := r.RunStatic(ctx, specs[0], core.Balanced{}); err != nil {
		t.Fatal(err)
	}
	if st := r.TraceStats(); st.Opens != 4 {
		t.Fatalf("opens = %d after re-running the evicted workload, want 4", st.Opens)
	}
	if got := r.RecordingBytes(); got > recordingBudget {
		t.Fatalf("kept %d bytes over the %d-byte budget", got, recordingBudget)
	}
}

// TestSimulationSlots: however the fan-outs nest, a runner never runs more
// than Options.Parallel simulations at once. Two figures in parallel, each
// fanning out over workloads, would otherwise run four.
func TestSimulationSlots(t *testing.T) {
	opts := tinyRecordingOpts()
	opts.RecordsPerCore = 3000
	opts.Parallel = 2
	r := mustRunner(t, opts)
	var mu sync.Mutex
	active, peak := 0, 0
	r.SetTraceWrap(func(_ string, s trace.Stream) trace.Stream {
		return &countingStream{s: s, enter: func(d int) {
			mu.Lock()
			active += d
			peak = max(peak, active)
			mu.Unlock()
		}}
	})
	ctx := context.Background()
	ids := []string{"figure5", "figure7", "figure8"}
	if _, err := exec.Map(ctx, 2, len(ids), func(i int) (any, error) {
		e, ok := r.ByID(ids[i])
		if !ok {
			return nil, fmt.Errorf("unknown experiment %s", ids[i])
		}
		return e.Run(ctx)
	}); err != nil {
		t.Fatal(err)
	}
	if limit := opts.Parallel * workload.Cores; peak > limit {
		t.Fatalf("%d streams consumed at once, want at most %d (%d simulations)", peak, limit, opts.Parallel)
	}
	if peak == 0 {
		t.Fatal("no stream was consumed")
	}
}

// countingStream reports when consumption of its stream starts and ends.
type countingStream struct {
	s       trace.Stream
	enter   func(delta int)
	started bool
	ended   bool
}

func (c *countingStream) Next() (trace.Record, error) {
	if !c.started {
		c.started = true
		c.enter(1)
	}
	rec, err := c.s.Next()
	if err != nil && !c.ended {
		c.ended = true
		c.enter(-1)
	}
	return rec, err
}

// TestTraceWrapSelectsWorkload proves the wrap seam is keyed by workload:
// wrapping one workload's streams with a failing reader fails only that
// workload's runs.
func TestTraceWrapSelectsWorkload(t *testing.T) {
	r := mustRunner(t, tinyRecordingOpts())
	injected := errors.New("injected trace fault")
	r.SetTraceWrap(func(name string, s trace.Stream) trace.Stream {
		if name == "mcf" {
			return failingStream{err: injected}
		}
		return s
	})
	ctx := context.Background()
	mcf, _ := workload.SpecByName("mcf")
	if _, err := r.ProfileOf(ctx, mcf); !errors.Is(err, injected) {
		t.Fatalf("wrapped workload error = %v, want the injected fault", err)
	}
	astar, _ := workload.SpecByName("astar")
	if _, err := r.ProfileOf(ctx, astar); err != nil {
		t.Fatalf("unwrapped workload failed: %v", err)
	}
}

type failingStream struct{ err error }

func (f failingStream) Next() (trace.Record, error) { return trace.Record{}, f.err }

// TestCoalescedReplayZeroAllocs is the AllocsPerRun gate on replay: building
// a replay view of a recording and draining it allocates nothing, so the
// replayed inner loop is as lean as the generator path.
func TestCoalescedReplayZeroAllocs(t *testing.T) {
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.Build(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := suite.Generators[0].Record()
	allocs := testing.AllocsPerRun(10, func() {
		stream := rec.Stream()
		for {
			if _, err := stream.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("building and draining a replay allocates %.1f per pass, want 0", allocs)
	}
}
