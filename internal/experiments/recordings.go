package experiments

// Trace recordings: every figure runs each workload under several policies,
// and a simulation consumes its streams, so without sharing each simulation
// would regenerate its workload's trace. Instead the first simulation of a
// workload records the trace once, in compact form (about 3.3 bytes per
// record, see workload.Recording), and every simulation of that workload replays the
// recording — the record-once, replay-per-configuration method of the
// paper's PinPlay traces. Generators are pure functions of (spec,
// recordsPerCore, seed), so a replay is bit-identical to a fresh generator
// and results do not depend on whether a simulation recorded or replayed.
//
// A Runner keeps its recordings under a byte budget sized from the trace
// length, dropping the oldest first; a dropped workload is recorded again
// by its next simulation.

import (
	"context"
	"sync"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/obs"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// maxRecordBytes bounds the bytes of one recorded record of a built-in
// workload: a header byte, a gap code of at most two bytes and a two-byte
// page code. Built-in footprints stay below the page escape and their gaps
// below the gap escape, so no record spills into the wide column. Records
// average about 3.3 B, since most carry no page code.
const maxRecordBytes = 5

// recordingBudget bounds the bytes of recordings one Runner keeps at
// recordsPerCore records per core: room for every built-in workload's
// recording at once, so a figure suite records each workload once at any
// trace length. At the default 40k it is 44.8 MB; the 14 workloads need
// 29.3 MB (16 cores × 40k records × 3.27 B each).
func recordingBudget(recordsPerCore int) int64 {
	return int64(len(workload.AllSpecs())) * workload.Cores * int64(recordsPerCore) * maxRecordBytes
}

// TraceStats counts trace deliveries: Opens is how many times a workload's
// trace was recorded from its generators, and CoalesceHits is how many
// simulations replayed an existing recording instead. Exported on /metrics
// as hmemd_trace_opens_total / hmemd_coalesce_hits_total.
type TraceStats struct {
	Opens        uint64
	CoalesceHits uint64
}

// Add returns the element-wise sum, for aggregating several runners.
func (s TraceStats) Add(o TraceStats) TraceStats {
	return TraceStats{Opens: s.Opens + o.Opens, CoalesceHits: s.CoalesceHits + o.CoalesceHits}
}

// recording is one workload's recorded trace: the merged structure table and
// one recording per core.
type recording struct {
	structures []workload.Structure
	cores      []*workload.Recording
	bytes      int64
}

// suiteView is what a simulation consumes from a recording: the structure
// table, one replay stream per core and each core's page range.
type suiteView struct {
	structures []workload.Structure
	streams    []trace.Stream
	ranges     []core.PageRange
}

// recordingStore is a Runner's bounded set of recordings by workload name,
// the StudyStore pattern with a byte bound.
type recordingStore struct {
	memo   exec.Memo[string, *recording]
	budget int64 // see recordingBudget

	mu    sync.Mutex
	order []storedRecording // oldest first
	bytes int64             // sum over order
}

type storedRecording struct {
	name  string
	bytes int64
}

// do returns the workload's recording, recording it with rec on a miss;
// fresh reports whether this call did the recording. Concurrent callers of
// one workload share a single recording.
func (st *recordingStore) do(ctx context.Context, name string, rec func() (*recording, error)) (v *recording, fresh bool, err error) {
	v, err = st.memo.DoCtx(ctx, name, func() (*recording, error) {
		fresh = true
		return rec()
	})
	if fresh && err == nil {
		st.mu.Lock()
		st.order = append(st.order, storedRecording{name, v.bytes})
		st.bytes += v.bytes
		for st.bytes > st.budget {
			st.memo.Forget(st.order[0].name)
			st.bytes -= st.order[0].bytes
			st.order = st.order[1:]
		}
		st.mu.Unlock()
	}
	return v, fresh, err
}

// size returns the bytes of the recordings the store keeps.
func (st *recordingStore) size() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// TraceStats returns the runner's trace-delivery counters.
func (r *Runner) TraceStats() TraceStats {
	return TraceStats{Opens: r.traceOpens.Load(), CoalesceHits: r.coalesceHits.Load()}
}

// RecordingBytes returns the bytes of trace recordings the runner keeps,
// at most its recording budget.
func (r *Runner) RecordingBytes() int64 { return r.recordings.size() }

// SetTraceWrap installs a wrapper applied to every trace stream a
// simulation consumes, keyed by workload name — the fault-injection seam
// batch chaos tests use to fail one item's trace while the rest of the
// batch proceeds. A setter rather than an Options field: Options is
// fingerprinted with %#v for cache keys, which function pointers would
// break. Test-only; results computed under a wrap are cached like any
// other, so production runners must leave it nil.
func (r *Runner) SetTraceWrap(wrap func(workloadName string, s trace.Stream) trace.Stream) {
	r.traceWrapMu.Lock()
	r.traceWrap = wrap
	r.traceWrapMu.Unlock()
}

func (r *Runner) getTraceWrap() func(string, trace.Stream) trace.Stream {
	r.traceWrapMu.RLock()
	defer r.traceWrapMu.RUnlock()
	return r.traceWrap
}

// buildSuiteCtx returns a replay view of the workload's recording,
// recording it first if the runner keeps none, as a "trace.build" span. The
// installed trace wrap (if any) applies to the view's streams, never to the
// recording, so an injected fault fails the simulations that consume it,
// not the shared recording.
func (r *Runner) buildSuiteCtx(ctx context.Context, spec workload.Spec) (*suiteView, error) {
	// Gated on Enabled so the attribute slice is never built untraced.
	if obs.Enabled(ctx) {
		_, sp := obs.Start(ctx, "trace.build",
			obs.Str("workload", spec.Name), obs.Int("records_per_core", int64(r.opts.RecordsPerCore)))
		defer sp.End()
	}
	rec, fresh, err := r.recordings.do(ctx, spec.Name, func() (*recording, error) {
		return r.record(spec)
	})
	if err != nil {
		return nil, err
	}
	if fresh {
		r.traceOpens.Add(1)
	} else {
		r.coalesceHits.Add(1)
	}
	wrap := r.getTraceWrap()
	v := &suiteView{structures: rec.structures, streams: make([]trace.Stream, len(rec.cores)),
		ranges: make([]core.PageRange, len(rec.cores))}
	for i, c := range rec.cores {
		first, count := c.Pages()
		v.ranges[i] = core.PageRange{First: first, Count: count}
		v.streams[i] = c.Stream()
		if wrap != nil {
			v.streams[i] = wrap(spec.Name, v.streams[i])
		}
	}
	return v, nil
}

// record runs the workload's generators once into recordings.
func (r *Runner) record(spec workload.Spec) (*recording, error) {
	suite, err := spec.Build(r.opts.RecordsPerCore, r.opts.Seed)
	if err != nil {
		return nil, err
	}
	rec := &recording{structures: suite.Structures, cores: make([]*workload.Recording, len(suite.Generators))}
	for i, g := range suite.Generators {
		rec.cores[i] = g.Record()
		rec.bytes += rec.cores[i].Bytes()
	}
	return rec, nil
}
