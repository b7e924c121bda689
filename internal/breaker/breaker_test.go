package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmem/internal/xrand"
)

// fakeClock is a manually-advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// call pushes one outcome through the Allow/done cycle, failing the test if
// the breaker refuses.
func call(t *testing.T, b *Breaker, success bool) {
	t.Helper()
	done, ok := b.Allow()
	if !ok {
		t.Fatalf("breaker refused a call in state %s", b.State())
	}
	done(success)
}

// trip fails minSamples calls in a row, which opens a closed breaker.
func trip(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < minSamples; i++ {
		call(t, b, false)
	}
}

// TestBreakerLifecycle walks the whole machine: closed trips at the failure
// ratio, open refuses, the quarantine expires into half-open probing, and
// consecutive probe successes close it again.
func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	var transitions []string
	b := New(Config{
		Now: clock.Now,
		OnTransition: func(from, to State) {
			transitions = append(transitions, from.String()+">"+to.String())
		},
	})

	// Every third call fails: the window fills with a failure ratio under
	// failureRatio, and the breaker stays closed.
	for i := 0; i < 2*window; i++ {
		call(t, b, i%3 != 0)
	}
	if st := b.Stats(); st.State != Closed || st.WindowSamples != window {
		t.Fatalf("after %d calls at 1/3 failures: %+v, want closed with a full window", 2*window, st)
	}
	b = New(b.cfg)
	// Four failures in a row: below minSamples, still closed.
	for i := 0; i < minSamples-1; i++ {
		call(t, b, false)
	}
	if b.State() != Closed {
		t.Fatalf("state after %d failures = %s, want closed (minSamples=%d)", minSamples-1, b.State(), minSamples)
	}
	// The fifth failure reaches minSamples with ratio 1.0: trip.
	call(t, b, false)
	if b.State() != Open {
		t.Fatalf("state after %d failures = %s, want open", minSamples, b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker admitted a call before openFor elapsed")
	}
	clock.Advance(openFor - time.Millisecond)
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker admitted a call 1ms before openFor elapsed")
	}

	// Quarantine expires: the next Allow is a probe.
	clock.Advance(2 * time.Millisecond)
	done, ok := b.Allow()
	if !ok {
		t.Fatal("expired quarantine refused the probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during probe = %s, want half-open", b.State())
	}
	done(true)
	// One success is not enough (probeSuccesses=2).
	if b.State() != HalfOpen {
		t.Fatalf("state after 1 probe success = %s, want half-open", b.State())
	}
	call(t, b, true)
	if b.State() != Closed {
		t.Fatalf("state after 2 probe successes = %s, want closed", b.State())
	}

	st := b.Stats()
	if st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("opens=%d closes=%d, want 1 and 1", st.Opens, st.Closes)
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// TestBreakerProbeFailureReopens: any half-open probe failure snaps back to a
// full quarantine, and the reopened breaker refuses again until openFor.
func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := newFakeClock()
	b := New(Config{Now: clock.Now})
	trip(t, b)
	if b.State() != Open {
		t.Fatalf("state = %s, want open", b.State())
	}
	clock.Advance(openFor + 100*time.Millisecond)
	done, ok := b.Allow()
	if !ok {
		t.Fatal("probe refused")
	}
	done(false)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	// The new quarantine starts from the failed probe, not the first trip.
	clock.Advance(openFor - 100*time.Millisecond)
	if _, ok := b.Allow(); ok {
		t.Fatal("reopened breaker admitted a call before its fresh openFor elapsed")
	}
	clock.Advance(200 * time.Millisecond)
	if _, ok := b.Allow(); !ok {
		t.Fatal("second quarantine never expired")
	}
}

// TestBreakerHalfOpenProbeBurst pins the probe budget: exactly probeBudget
// concurrent probes are admitted and the burst beyond them is refused,
// however many callers pile in.
func TestBreakerHalfOpenProbeBurst(t *testing.T) {
	clock := newFakeClock()
	b := New(Config{Now: clock.Now})
	trip(t, b)
	clock.Advance(2 * openFor)

	var dones []func(bool)
	admitted := 0
	for i := 0; i < 10; i++ {
		if done, ok := b.Allow(); ok {
			admitted++
			dones = append(dones, done)
		}
	}
	if admitted != probeBudget {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly %d (probeBudget)", admitted, probeBudget)
	}
	// Completing one probe (short of probeSuccesses) frees one slot — and
	// only one.
	dones[0](true)
	if b.State() != HalfOpen {
		t.Fatalf("state after 1 of %d probe successes = %s, want half-open", probeSuccesses, b.State())
	}
	admitted = 0
	for i := 0; i < 10; i++ {
		if done, ok := b.Allow(); ok {
			admitted++
			dones = append(dones, done)
		}
	}
	if admitted != 1 {
		t.Fatalf("after one probe returned, %d more admitted, want 1", admitted)
	}
}

// TestBreakerAlwaysHealthyNeverOpens is the property test: whatever the
// (seeded) concurrency, an upstream that always succeeds never opens the
// breaker and never has a call refused.
func TestBreakerAlwaysHealthyNeverOpens(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		b := New(Config{})
		workers := 1 + int(rng.Uint64n(8))
		var refused atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					done, ok := b.Allow()
					if !ok {
						refused.Add(1)
						continue
					}
					done(true)
				}
			}()
		}
		wg.Wait()
		if refused.Load() != 0 {
			t.Fatalf("seed %d: healthy upstream had %d calls refused", seed, refused.Load())
		}
		if st := b.Stats(); st.Opens != 0 || b.State() != Closed {
			t.Fatalf("seed %d: healthy upstream opened the breaker (opens=%d state=%s)",
				seed, st.Opens, b.State())
		}
	}
}

// TestBreakerConcurrentTripReset hammers Allow/done from many goroutines with
// a mixed outcome stream while the clock advances, so trips, probe races, and
// resets interleave — the -race regression for the state machine's locking.
func TestBreakerConcurrentTripReset(t *testing.T) {
	// Every clock read moves time on by 1/50 of the quarantine, so the
	// breaker cycles through open, half-open and closed many times.
	var ticks atomic.Int64
	start := time.Unix(1_700_000_000, 0)
	b := New(Config{Now: func() time.Time {
		return start.Add(time.Duration(ticks.Add(1)) * (openFor / 50))
	}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New(uint64(id) + 1)
			for i := 0; i < 500; i++ {
				done, ok := b.Allow()
				if !ok {
					continue
				}
				done(rng.Uint64n(3) != 0) // ~2/3 success
			}
		}(w)
	}
	wg.Wait()
	// Beyond the breaker having cycled, assert only invariants: counters
	// consistent, state valid.
	st := b.Stats()
	if st.Opens == 0 || st.Closes == 0 {
		t.Fatalf("opens=%d closes=%d: the breaker never cycled", st.Opens, st.Closes)
	}
	if st.State != Closed && st.State != Open && st.State != HalfOpen {
		t.Fatalf("invalid state %d", st.State)
	}
	if st.WindowFailures > st.WindowSamples {
		t.Fatalf("window failures %d > samples %d", st.WindowFailures, st.WindowSamples)
	}
	if st.Opens < st.Closes {
		t.Fatalf("closes %d exceed opens %d", st.Closes, st.Opens)
	}
}

// TestSetKeysAndTransitions: members are created on demand, transitions carry
// the member key, and the aggregate totals see every member.
func TestSetKeysAndTransitions(t *testing.T) {
	clock := newFakeClock()
	var mu sync.Mutex
	got := map[string][]string{}
	s := &Set{
		Config: Config{Now: clock.Now},
		OnTransition: func(key string, from, to State) {
			mu.Lock()
			got[key] = append(got[key], from.String()+">"+to.String())
			mu.Unlock()
		},
	}
	if s.Get("w1") != s.Get("w1") {
		t.Fatal("Get is not stable per key")
	}
	trip(t, s.Get("w1"))
	call(t, s.Get("w2"), true)

	states := s.States()
	if states["w1"] != Open || states["w2"] != Closed {
		t.Fatalf("states = %v, want w1 open, w2 closed", states)
	}
	opens, closes := s.Totals()
	if opens != 1 || closes != 0 {
		t.Fatalf("totals opens=%d closes=%d, want 1, 0", opens, closes)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got["w1"]) != 1 || got["w1"][0] != "closed>open" || len(got["w2"]) != 0 {
		t.Fatalf("transition log = %v", got)
	}
}
