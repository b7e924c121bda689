package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoSingleFlight: many concurrent callers of the same key share one
// execution and all observe its value.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var executions atomic.Int64
	gate := make(chan struct{})

	const callers = 64
	var wg sync.WaitGroup
	results := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i], errs[i] = m.Do("key", func() (int, error) {
				executions.Add(1)
				return 42, nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("function executed %d times, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d: got (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestMemoDistinctKeys: distinct keys execute independently, once each.
func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	var executions atomic.Int64

	const keys = 32
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, err := m.Do(k, func() (int, error) {
					executions.Add(1)
					return k * k, nil
				})
				if err != nil || v != k*k {
					t.Errorf("key %d: got (%d, %v)", k, v, err)
				}
			}(k)
		}
	}
	wg.Wait()
	if n := executions.Load(); n != keys {
		t.Fatalf("executions = %d, want %d", n, keys)
	}
}

// TestMemoErrorForgotten: a failed computation is shared with the callers
// already waiting on it, then forgotten — the next caller runs its own
// function, and that success is cached.
func TestMemoErrorForgotten(t *testing.T) {
	var m Memo[string, int]
	var executions atomic.Int64
	boom := errors.New("boom")
	gate := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Do("bad", func() (int, error) {
				executions.Add(1)
				<-gate
				return 0, boom
			}); !errors.Is(err, boom) {
				t.Errorf("got err %v, want boom", err)
			}
		}()
	}
	for m.Stats().Hits < callers-1 { // every waiter has joined the leader
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("failed fn executed %d times, want 1", n)
	}
	if m.Known("bad") || m.Len() != 0 {
		t.Fatalf("failed key still cached (Len=%d)", m.Len())
	}
	// A later caller computes afresh; its success sticks.
	if v, err := m.Do("bad", func() (int, error) { executions.Add(1); return 7, nil }); v != 7 || err != nil {
		t.Fatalf("retry got (%d, %v), want (7, nil)", v, err)
	}
	if v, err := m.Do("bad", func() (int, error) { executions.Add(1); return 0, boom }); v != 7 || err != nil {
		t.Fatalf("cached success lost: (%d, %v)", v, err)
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("fn executed %d times, want 2 (error retried, success cached)", n)
	}
	if s := m.Stats(); s.Hits != callers || s.Misses != 2 {
		t.Fatalf("Stats = %+v, want {Hits:%d Misses:2}", s, callers)
	}
}

// TestMemoPanicPropagation: a panicking computation re-raises in the leader
// and every concurrent waiter, without re-execution.
func TestMemoPanicPropagation(t *testing.T) {
	var m Memo[string, int]
	var executions, caught atomic.Int64
	gate := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					t.Error("caller did not panic")
					return
				}
				pe, ok := r.(PanicError)
				if !ok || pe.Value != "kaboom" {
					t.Errorf("unexpected panic payload %v", r)
					return
				}
				caught.Add(1)
			}()
			m.Do("explosive", func() (int, error) {
				executions.Add(1)
				<-gate
				panic("kaboom")
			})
		}()
	}
	for m.Stats().Hits < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := caught.Load(); n != callers {
		t.Fatalf("%d callers caught the panic, want %d", n, callers)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("panicking fn executed %d times, want 1", n)
	}
}

// TestMemoPanicDoesNotWedgeKey is the regression for a panicking shard
// computation: the key must not stay in flight forever. A later caller with
// a short deadline runs its own function instead of waiting it out.
func TestMemoPanicDoesNotWedgeKey(t *testing.T) {
	var m Memo[string, []byte]
	func() {
		defer func() { recover() }()
		m.Do("shard", func() ([]byte, error) { panic("worker bug") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	v, err := m.DoCtx(ctx, "shard", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("second Do = (%q, %v), want (ok, nil)", v, err)
	}
}

// TestGroupBoundsConcurrency: at most `workers` tasks run at once.
func TestGroupBoundsConcurrency(t *testing.T) {
	const workers, tasks = 3, 24
	g := NewGroup(context.Background(), workers)
	var cur, peak atomic.Int64
	for i := 0; i < tasks; i++ {
		g.Go(func() error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, limit %d", p, workers)
	}
}

// TestGroupFirstErrorWinsAndCancels: the first error is reported and tasks
// not yet started are skipped.
func TestGroupFirstErrorWinsAndCancels(t *testing.T) {
	g := NewGroup(context.Background(), 1) // serialize so "later" tasks are provably unstarted
	boom := errors.New("boom")
	var ran atomic.Int64
	g.Go(func() error { ran.Add(1); return boom })
	for i := 0; i < 50; i++ {
		g.Go(func() error { ran.Add(1); return nil })
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	// The failing task ran; with one worker and immediate failure, at least
	// the tail of the queue must have been skipped.
	if n := ran.Load(); n == 51 {
		t.Fatal("no tasks were cancelled after the first error")
	}
}

// TestGroupPanicSurfacesInWait: a panicking task does not crash the worker
// goroutine silently — Wait re-raises it.
func TestGroupPanicSurfacesInWait(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	g.Go(func() error { panic("worker exploded") })
	defer func() {
		r := recover()
		pe, ok := r.(PanicError)
		if !ok || pe.Value != "worker exploded" {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	g.Wait()
	t.Fatal("Wait returned instead of panicking")
}

// TestMapOrderIndependentOfScheduling: Map returns results in index order
// at any worker count.
func TestMapOrderIndependentOfScheduling(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(context.Background(), workers, 100, func(i int) (string, error) {
			runtime.Gosched()
			return fmt.Sprintf("item-%d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if want := fmt.Sprintf("item-%d", i); v != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, v, want)
			}
		}
	}
}

// TestMapError: an error aborts the fan-out.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("Map = (%v, %v), want (nil, boom)", out, err)
	}
}

// TestWorkersResolution: non-positive requests resolve to NumCPU.
func TestWorkersResolution(t *testing.T) {
	if Workers(0) != runtime.NumCPU() || Workers(-3) != runtime.NumCPU() {
		t.Fatal("non-positive workers should resolve to NumCPU")
	}
	if Workers(5) != 5 {
		t.Fatal("positive workers should pass through")
	}
}

// TestGroupContextCancelStopsPool: cancelling the group's context skips every
// task that has not started yet and Wait reports the cancellation promptly.
// Run under -race this also checks the cancel path for data races.
func TestGroupContextCancelStopsPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 2)
	var started atomic.Int64
	release := make(chan struct{})
	firstRunning := make(chan struct{}, 2)

	const tasks = 200
	for i := 0; i < tasks; i++ {
		g.Go(func() error {
			started.Add(1)
			firstRunning <- struct{}{}
			<-release // hold both workers until the test cancels
			return nil
		})
	}
	<-firstRunning // at least one task is occupying the pool
	cancel()
	close(release)
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// Both workers may have picked up a task before cancel landed; everything
	// else must have been skipped.
	if n := started.Load(); n > 2 {
		t.Fatalf("%d tasks started after cancellation, want <= 2", n)
	}
}

// TestMapContextPreCancelled: a cancelled context means no task runs at all.
func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	out, err := Map(ctx, 4, 50, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("Map = (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context", n)
	}
}

// TestMemoStats: the leader is a miss, every sharer (in-flight or after the
// fact) is a hit.
func TestMemoStats(t *testing.T) {
	var m Memo[string, int]
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	go m.Do("key", func() (int, error) {
		close(leaderIn)
		<-gate
		return 1, nil
	})
	<-leaderIn

	// A concurrent waiter shares the in-flight computation: that is a hit.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err := m.Do("key", func() (int, error) { return 99, nil }); v != 1 || err != nil {
			t.Errorf("waiter got (%d, %v), want (1, nil)", v, err)
		}
	}()
	for m.Stats().Hits == 0 { // waiter registers its hit before blocking
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	// A subsequent caller hits the finished entry.
	if _, err := m.Do("key", func() (int, error) { return 99, nil }); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("Stats = %+v, want {Hits:2 Misses:1}", s)
	}
	sum := m.Stats().Add(MemoStats{Hits: 1, Misses: 2})
	if sum.Hits != 3 || sum.Misses != 3 {
		t.Fatalf("Add = %+v, want {Hits:3 Misses:3}", sum)
	}
}

// TestMemoDoCtxWaiterAbandons: a waiter whose context is cancelled stops
// waiting on the in-flight leader; the leader's result still lands in the
// cache for later callers.
func TestMemoDoCtxWaiterAbandons(t *testing.T) {
	var m Memo[string, int]
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})

	go func() {
		m.Do("slow", func() (int, error) {
			close(leaderIn)
			<-gate
			return 7, nil
		})
		close(leaderOut)
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.DoCtx(ctx, "slow", func() (int, error) { return 0, nil })
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}

	close(gate)
	<-leaderOut
	// The computation was not poisoned by the waiter's cancellation.
	v, err := m.DoCtx(context.Background(), "slow", func() (int, error) { return 0, nil })
	if v != 7 || err != nil {
		t.Fatalf("post-cancel caller got (%d, %v), want (7, nil)", v, err)
	}
}

// TestMemoDoCtxPreCancelled: a cancelled context never registers (or runs)
// the computation, so a later caller still computes fresh.
func TestMemoDoCtxPreCancelled(t *testing.T) {
	var m Memo[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.DoCtx(ctx, "k", func() (int, error) {
		t.Error("fn ran under a pre-cancelled context")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Len() != 0 {
		t.Fatalf("cancelled request registered a call entry (Len=%d)", m.Len())
	}
	if v, err := m.Do("k", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("later caller got (%d, %v), want (3, nil)", v, err)
	}
}
