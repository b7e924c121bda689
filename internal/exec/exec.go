// Package exec provides the concurrency primitives behind the experiment
// engine: a generic singleflight memo cache and a bounded fan-out.
//
// Every fan-out in the repository — figure drivers sweeping workloads ×
// policies, fault-study shards, facade comparisons, hmemd service requests —
// goes through this package so that four invariants hold everywhere:
//
//   - work sharing: concurrent requests for the same memo key share one
//     in-flight computation instead of racing or duplicating multi-second
//     simulations;
//   - deterministic assembly: Map writes results by index, so the output
//     of a fan-out is a pure function of its inputs regardless of worker
//     count or goroutine scheduling;
//   - prompt cancellation: a cancelled context stops a pool from starting
//     any further task and releases waiters blocked on someone else's
//     in-flight memo computation;
//   - one failure convention: a task's panic is recovered once, in the
//     goroutine where it happened, into a *PanicError, and travels as an
//     error from there (see Protect).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"hmem/internal/obs"
)

// Memo is a concurrency-safe, generic singleflight memo cache.
//
// The first caller of Do for a key runs the function; callers arriving while
// it is in flight block and share its outcome. Only successes are cached. A
// failed computation's error, or its panic (returned as a *PanicError),
// reaches the first caller and every waiter already sharing it, and then the
// key is forgotten so the next caller computes afresh. Simulations are
// deterministic functions of their key and would fail the same way again,
// but a cluster shard dispatch can fail for transient reasons (dead worker,
// partition, drain), and a cached failure or panic would wedge its key for
// every later caller.
//
// The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*memoCall[V]

	hits   atomic.Uint64
	misses atomic.Uint64
}

// memoCall is one (possibly in-flight) computation.
type memoCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// MemoStats is a point-in-time snapshot of a memo's request counters. A hit
// is a request served from a finished or in-flight computation; a miss is a
// request that had to start one. hits/(hits+misses) is the work-sharing
// ratio cmd/experiments prints and hmemd's /metrics endpoint exports.
type MemoStats struct {
	Hits   uint64
	Misses uint64
}

// Add returns the element-wise sum, for aggregating several memos.
func (s MemoStats) Add(o MemoStats) MemoStats {
	return MemoStats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses}
}

// PanicError is a task's panic, recovered by Protect in the goroutine where
// it happened. From there it travels as an ordinary error: out of Memo to
// the leader and every waiter, out of Map as the fan-out's failure, out of
// Settle in the task's slot. A panic nested several fan-outs deep therefore
// arrives as one PanicError, not as a wrapper of wrappers.
type PanicError struct {
	Value any
	// Stack is the panicking goroutine's own stack, captured while the
	// panic unwinds, so it names the frame that panicked.
	Stack string
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("exec: panic in task: %v", p.Value) }

// Protect runs fn and converts a panic into a returned *PanicError carrying
// the recovered value and the panicking goroutine's stack. It is the one
// place this package recovers: Memo, Map and Settle run every task through
// it, and hmemd runs each cluster shard through it, so a broken invariant in
// one task fails that task's caller, not the process. Deliberate runtime
// aborts (runtime.Goexit) are not intercepted.
func Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// Do returns the memoized outcome for key, computing it with fn if this is
// the first request. fn runs in the caller's goroutine.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	return m.DoCtx(context.Background(), key, fn)
}

// DoCtx is Do with cancellation for the *requester*, not the computation:
// a caller whose context is cancelled before the computation starts never
// registers it, and a caller waiting on another goroutine's in-flight
// computation stops waiting and returns ctx.Err(). The computation itself —
// once started — always runs to completion, because its outcome is shared
// with every other requester of the key; this is also why fn must not
// observe the caller's context (one caller's cancellation would fail every
// requester waiting on it).
func (m *Memo[K, V]) DoCtx(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	m.mu.Lock()
	if m.calls == nil {
		m.calls = make(map[K]*memoCall[V])
	}
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		m.hits.Add(1)
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	c := &memoCall[V]{done: make(chan struct{})}
	m.calls[key] = c
	m.mu.Unlock()
	m.misses.Add(1)

	c.err = Protect(func() (err error) {
		c.val, err = fn()
		return err
	})
	if c.err != nil {
		m.mu.Lock()
		if m.calls[key] == c {
			delete(m.calls, key)
		}
		m.mu.Unlock()
	}
	close(c.done)
	return c.val, c.err
}

// Len reports how many keys are cached or in flight.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

// Known reports whether key has a finished or in-flight computation — i.e.
// whether a Do for it would share existing work rather than start new work.
// Admission control uses this to price memo hits as near-free without
// perturbing the hit/miss counters.
func (m *Memo[K, V]) Known(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.calls[key]
	return ok
}

// Forget drops key's entry so the next Do computes it afresh — the eviction
// hook for callers that bound a memo. Waiters already sharing an in-flight
// computation still receive its outcome.
func (m *Memo[K, V]) Forget(key K) {
	m.mu.Lock()
	delete(m.calls, key)
	m.mu.Unlock()
}

// Stats returns the current hit/miss counters.
func (m *Memo[K, V]) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load()}
}

// Workers resolves a requested worker count: non-positive means "one worker
// per CPU".
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// fanout observes one Map or Settle dispatch: each task gets a leaf
// "exec.task" span (tasks take fn(i int) with no context, so these spans
// cannot parent work inside the task — they record dispatch and wall time
// only), and each completion reports fan-out progress to the context's sink,
// with the phase defaulting to the enclosing span's name.
type fanout struct {
	ctx  context.Context
	n    int
	done atomic.Int64
}

// newFanout returns the dispatch observer, or nil when ctx carries neither
// a tracer nor a progress sink. The nil return is load-bearing: a nil
// fanout's start and finish do nothing, so a bare context pays zero extra
// allocations — per task and per call — with the observability layer
// compiled in (TestFanoutBareContextAllocs pins the count).
func newFanout(ctx context.Context, n int) *fanout {
	if !obs.Enabled(ctx) && !obs.Reporting(ctx) {
		return nil
	}
	return &fanout{ctx: ctx, n: n}
}

// start opens the task's span (nil when tracing is off; obs.Span is
// nil-safe).
func (f *fanout) start(i int) *obs.Span {
	if f == nil || !obs.Enabled(f.ctx) {
		return nil
	}
	_, sp := obs.Start(f.ctx, "exec.task", obs.Int("index", int64(i)))
	return sp
}

// finish closes the task's span and, on success, reports fan-out progress.
func (f *fanout) finish(sp *obs.Span, err error) {
	sp.End()
	if f == nil || err != nil {
		return
	}
	done := f.done.Add(1)
	obs.ReportProgress(f.ctx, obs.Progress{
		Percent: float64(done) / float64(f.n),
		Records: done,
	})
}

// pool is the one worker loop behind Map and Settle. At most workers
// goroutines take the indices in order and run task(i), recording its error
// in errs[i]; a task not yet started when ctx is done is skipped with
// ctx.Err(). Tasks recover their own panics (Protect), so a worker never
// dies mid-loop.
func pool(ctx context.Context, workers, n int, task func(i int) error) []error {
	errs := make([]error, n)
	f := newFanout(ctx, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(Workers(workers), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if errs[i] = ctx.Err(); errs[i] != nil {
					continue
				}
				sp := f.start(i)
				errs[i] = task(i)
				f.finish(sp, errs[i])
			}
		}()
	}
	wg.Wait()
	return errs
}

// Map evaluates fn(0..n-1) on at most workers goroutines and returns the
// results in index order — the fan-out/fan-in used by every figure driver.
// The first failure (a task's error, its *PanicError, or ctx's error)
// cancels every task not yet started and is returned, the partial results
// discarded. Tasks already running are not interrupted — simulations have
// no preemption points. When ctx carries obs facilities, each task is
// recorded as an "exec.task" span and completions report progress.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	out := make([]T, n)
	errs := pool(ctx, workers, n, func(i int) error {
		err := Protect(func() (err error) {
			out[i], err = fn(i)
			return err
		})
		if err != nil {
			cancel(err)
		}
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, context.Cause(ctx)
		}
	}
	return out, nil
}

// Settle evaluates fn(0..n-1) on at most workers goroutines and returns
// every task's error by index — the error-isolating cousin of Map for
// fan-outs where one item's failure must not abort the rest (hmemd's
// per-item and per-job execution). A failing or panicking task never
// cancels its siblings: its error, or its *PanicError, lands in its own
// slot, and only tasks that have not yet started when ctx is cancelled are
// skipped with ctx.Err(). The returned slice always has length n; nil
// entries are tasks that completed without error.
func Settle(ctx context.Context, workers, n int, fn func(i int) error) []error {
	return pool(ctx, workers, n, func(i int) error {
		return Protect(func() error { return fn(i) })
	})
}
