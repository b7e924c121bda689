// Package exec provides the concurrency primitives behind the experiment
// engine: a generic singleflight memo cache and a bounded worker group.
//
// Every fan-out in the repository — figure drivers sweeping workloads ×
// policies, fault-study shards, facade comparisons, hmemd service requests —
// goes through this package so that three invariants hold everywhere:
//
//   - work sharing: concurrent requests for the same memo key share one
//     in-flight computation instead of racing or duplicating multi-second
//     simulations;
//   - deterministic assembly: Map writes results by index, so the output
//     of a fan-out is a pure function of its inputs regardless of worker
//     count or goroutine scheduling;
//   - prompt cancellation: a cancelled context stops a pool from starting
//     any further task and releases waiters blocked on someone else's
//     in-flight memo computation.
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
// failed computation's error, or its panic (re-raised wrapped in PanicError),
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
	done     chan struct{}
	val      V
	err      error
	panicked bool
	panicVal any
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

// PanicError wraps a panic value recovered from a memoized computation or a
// group task so it can be re-raised in a different goroutine with its origin
// preserved.
type PanicError struct {
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery time.
	// Only Protect fills it; re-raised memo/group panics leave it empty
	// because the original stack is gone by the time they propagate.
	Stack string
}

// Error implements error.
func (p PanicError) Error() string { return fmt.Sprintf("exec: panic in task: %v", p.Value) }

// Protect runs fn and converts a panic into a returned *PanicError carrying
// the recovered value and the panicking goroutine's stack. It is the
// isolation primitive for long-lived worker loops (hmemd's job runner): a
// broken invariant in one task must fail that task's request, not the
// process. Deliberate runtime aborts (runtime.Goexit) are not intercepted.
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
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if c.panicked {
			panic(PanicError{Value: c.panicVal})
		}
		return c.val, c.err
	}
	c := &memoCall[V]{done: make(chan struct{})}
	m.calls[key] = c
	m.mu.Unlock()
	m.misses.Add(1)

	defer func() {
		r := recover()
		if r != nil {
			c.panicked = true
			c.panicVal = r
		}
		if c.panicked || c.err != nil {
			m.mu.Lock()
			if m.calls[key] == c {
				delete(m.calls, key)
			}
			m.mu.Unlock()
		}
		close(c.done)
		if r != nil {
			panic(PanicError{Value: r})
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err
}

// Len reports how many keys are cached or in flight.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

// Peek returns key's cached value without computing anything or touching
// the hit/miss counters. It misses while the computation is still in flight:
// the cluster's peer-cache lookup serves finished results only.
func (m *Memo[K, V]) Peek(key K) (V, bool) {
	m.mu.Lock()
	c, ok := m.calls[key]
	m.mu.Unlock()
	if ok {
		select {
		case <-c.done:
			if !c.panicked && c.err == nil {
				return c.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
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

// Group runs tasks on at most a fixed number of goroutines, propagating the
// first failure and cancelling tasks that have not started yet. It is a
// dependency-free analogue of errgroup.Group with a concurrency limit and
// context cancellation.
type Group struct {
	ctx  context.Context
	sem  chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	err  error

	mu       sync.Mutex
	panicked bool
	panicVal any
	done     chan struct{}
}

// Workers resolves a requested worker count: non-positive means "one worker
// per CPU".
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// NewGroup returns a group running at most workers tasks concurrently
// (non-positive workers = runtime.NumCPU()). Cancelling ctx prevents any
// not-yet-started task from running; Wait then reports ctx's error (unless
// a task already failed first). Tasks already running are not interrupted —
// simulations have no preemption points, and their results are discarded on
// error anyway.
func NewGroup(ctx context.Context, workers int) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Group{
		ctx:  ctx,
		sem:  make(chan struct{}, Workers(workers)),
		done: make(chan struct{}),
	}
}

// fail records the group's first failure and cancels pending tasks.
func (g *Group) fail(err error, panicVal any, panicked bool) {
	g.once.Do(func() {
		g.mu.Lock()
		g.err = err
		g.panicked = panicked
		g.panicVal = panicVal
		g.mu.Unlock()
		close(g.done)
	})
}

// Go schedules fn. Tasks that have not yet started when another task fails —
// or when the group's context is cancelled — are skipped.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		select {
		case <-g.done:
			return
		case <-g.ctx.Done():
			g.fail(g.ctx.Err(), nil, false)
			return
		case g.sem <- struct{}{}:
		}
		defer func() { <-g.sem }()
		select {
		case <-g.done:
			return
		case <-g.ctx.Done():
			g.fail(g.ctx.Err(), nil, false)
			return
		default:
		}
		defer func() {
			if r := recover(); r != nil {
				g.fail(nil, r, true)
			}
		}()
		if err := fn(); err != nil {
			g.fail(err, nil, false)
		}
	}()
}

// Wait blocks until every scheduled task has finished or been skipped and
// returns the first error (a task's error, or the context's if cancellation
// struck first). If a task panicked, Wait re-raises the panic (wrapped in
// PanicError) in the waiting goroutine.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.panicked {
		panic(PanicError{Value: g.panicVal})
	}
	return g.err
}

// fanout observes one Map/ForEach dispatch: each task gets a leaf
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
// a tracer nor a progress sink. The nil return is load-bearing: Map and
// ForEach fall back to the exact uninstrumented task closure, so a bare
// context pays zero extra allocations — per task and per call — with the
// observability layer compiled in (TestFanoutBareContextAllocs pins the
// count).
func newFanout(ctx context.Context, n int) *fanout {
	if !obs.Enabled(ctx) && !obs.Reporting(ctx) {
		return nil
	}
	return &fanout{ctx: ctx, n: n}
}

// start opens the task's span (nil when tracing is off; obs.Span is
// nil-safe).
func (f *fanout) start(i int) *obs.Span {
	if !obs.Enabled(f.ctx) {
		return nil
	}
	_, sp := obs.Start(f.ctx, "exec.task", obs.Int("index", int64(i)))
	return sp
}

// finish closes the task's span and, on success, reports fan-out progress.
func (f *fanout) finish(sp *obs.Span, err error) {
	sp.End()
	if err != nil {
		return
	}
	done := f.done.Add(1)
	obs.ReportProgress(f.ctx, obs.Progress{
		Percent: float64(done) / float64(f.n),
		Records: done,
	})
}

// Map evaluates fn(0..n-1) on at most workers goroutines and returns the
// results in index order — the fan-out/fan-in used by every figure driver.
// On error (or ctx cancellation) the first failure is returned and the
// partial results discarded. When ctx carries obs facilities, each task is
// recorded as an "exec.task" span and completions report progress.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	g := NewGroup(ctx, workers)
	if f := newFanout(ctx, n); f != nil {
		for i := 0; i < n; i++ {
			i := i
			g.Go(func() error {
				sp := f.start(i)
				v, err := fn(i)
				f.finish(sp, err)
				if err != nil {
					return err
				}
				out[i] = v
				return nil
			})
		}
	} else {
		for i := 0; i < n; i++ {
			i := i
			g.Go(func() error {
				v, err := fn(i)
				if err != nil {
					return err
				}
				out[i] = v
				return nil
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// Settle evaluates fn(0..n-1) on at most workers goroutines and returns
// every task's error by index — the error-isolating cousin of ForEach for
// fan-outs where one item's failure must not abort the rest (the batch
// endpoint's per-item execution). Unlike Map/ForEach, a failing or
// panicking task never cancels its siblings: panics are converted to
// *PanicError in that task's slot via Protect, and only tasks that have not
// yet started when ctx is cancelled are skipped with ctx.Err(). The
// returned slice always has length n; nil entries are tasks that completed
// without error.
func Settle(ctx context.Context, workers, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	sem := make(chan struct{}, Workers(workers))
	var wg sync.WaitGroup
	f := newFanout(ctx, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			if f != nil {
				sp := f.start(i)
				errs[i] = Protect(func() error { return fn(i) })
				f.finish(sp, errs[i])
				return
			}
			errs[i] = Protect(func() error { return fn(i) })
		}()
	}
	wg.Wait()
	return errs
}

// ForEach evaluates fn(0..n-1) on at most workers goroutines and returns
// the first error. Observed the same way as Map.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	g := NewGroup(ctx, workers)
	if f := newFanout(ctx, n); f != nil {
		for i := 0; i < n; i++ {
			i := i
			g.Go(func() error {
				sp := f.start(i)
				err := fn(i)
				f.finish(sp, err)
				return err
			})
		}
	} else {
		for i := 0; i < n; i++ {
			i := i
			g.Go(func() error { return fn(i) })
		}
	}
	return g.Wait()
}
