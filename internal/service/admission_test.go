package service

import (
	"testing"
	"time"
)

// TestRetryAfterSeconds pins the drain-rate-derived hint: the ceiling of
// excess/rate clamped to [1, 60], degrading to the pre-adaptive constant 1
// whenever either input is unusable.
func TestRetryAfterSeconds(t *testing.T) {
	nan := 0.0
	nan /= nan
	cases := []struct {
		name         string
		excess, rate float64
		want         int
	}{
		{"no excess", 0, 5, 1},
		{"negative excess", -3, 5, 1},
		{"unmeasured rate", 4, 0, 1},
		{"negative rate", 4, -1, 1},
		{"nan excess", nan, 5, 1},
		{"nan rate", 4, nan, 1},
		{"exact division", 10, 5, 2},
		{"ceiling", 11, 5, 3},
		{"sub-second drain floors at 1", 0.5, 10, 1},
		{"clamped at 60", 1000, 1, 60},
		{"just under clamp", 59.5, 1, 60},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.excess, tc.rate); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(%v, %v) = %d, want %d",
				tc.name, tc.excess, tc.rate, got, tc.want)
		}
	}
}

// admClock is a hand-cranked clock for admission tests.
type admClock struct{ t time.Time }

func (c *admClock) now() time.Time          { return c.t }
func (c *admClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newAdmClock() *admClock                { return &admClock{t: time.Unix(1000, 0)} }

func TestEwmaRate(t *testing.T) {
	clock := newAdmClock()
	var e ewmaRate
	e.now = clock.now

	if got := e.rate(); got != 0 {
		t.Fatalf("fresh rate = %v, want 0", got)
	}
	// First observation only starts the clock.
	e.observe(4)
	if got := e.rate(); got != 0 {
		t.Fatalf("rate after one observation = %v, want 0", got)
	}
	// 8 units over 2s -> 4/s, adopted directly as the first sample.
	clock.advance(2 * time.Second)
	e.observe(8)
	if got := e.rate(); got != 4 {
		t.Fatalf("rate = %v, want 4", got)
	}
	// Same-instant completions accumulate into the next interval instead of
	// dividing by zero: 2+2 units over the following 1s -> inst 4/s, EWMA
	// unchanged at 4.
	e.observe(2)
	clock.advance(time.Second)
	e.observe(2)
	if got := e.rate(); got != 4 {
		t.Fatalf("rate after same-instant credit = %v, want 4", got)
	}
	// A slower interval pulls the EWMA down by alpha: 1 unit over 1s ->
	// inst 1, ewma = 4 + 0.2*(1-4) = 3.4.
	clock.advance(time.Second)
	e.observe(1)
	if got := e.rate(); got < 3.39 || got > 3.41 {
		t.Fatalf("rate after slow interval = %v, want ~3.4", got)
	}
}

func TestAdmissionShedAndRetryAfter(t *testing.T) {
	clock := newAdmClock()
	a := newAdmission(AdmissionConfig{Budget: 10, Now: clock.now})

	// Under budget: admitted, even when the request itself crosses the line.
	ok, _ := a.admit(9)
	if !ok {
		t.Fatal("first request shed under budget")
	}
	ok, _ = a.admit(4) // 9 < 10, crossing to 13 is allowed
	if !ok {
		t.Fatal("line-crossing request shed")
	}
	// At/over budget: shed. No completions yet, so the hint degrades to 1.
	ok, retry := a.admit(1)
	if ok {
		t.Fatal("over-budget request admitted")
	}
	if retry != 1 {
		t.Fatalf("Retry-After with unmeasured drain = %d, want 1", retry)
	}
	// Cost-0 requests (memo hits) always pass.
	if ok, _ := a.admit(0); !ok {
		t.Fatal("cost-0 request shed")
	}
	a.release(0)

	// Train the drain estimator: two releases 1s apart -> ~4 units/s.
	a.release(9)
	clock.advance(time.Second)
	a.release(4)
	a.charge(14) // back over budget with a known rate
	_, retry = a.admit(2)
	// excess = 14+2-10 = 6 units at 4/s -> ceil(1.5) = 2s.
	if retry != 2 {
		t.Fatalf("Retry-After = %d, want 2 (6 units at 4/s)", retry)
	}

	if got := a.inflight(); got != 14 {
		t.Fatalf("inflight = %v, want 14", got)
	}
	// Double release clamps at zero rather than wedging admission open.
	a.release(20)
	a.release(20)
	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight after over-release = %v, want 0", got)
	}
}

func TestAdmissionHealthLadder(t *testing.T) {
	clock := newAdmClock()
	a := newAdmission(AdmissionConfig{Budget: 10, Now: clock.now})

	if got := a.healthState(); got != healthOK {
		t.Fatalf("fresh state = %s, want ok", healthName(got))
	}
	// 7.5/10 crosses the 0.75 degraded ratio.
	a.charge(8)
	if got := a.healthState(); got != healthDegraded {
		t.Fatalf("state at 8/10 = %s, want degraded", healthName(got))
	}
	// Crossing the shedding ratio stamps both rungs.
	a.charge(3)
	if got := a.healthState(); got != healthShedding {
		t.Fatalf("state at 11/10 = %s, want shedding", healthName(got))
	}
	// Load drops, but the hold pins the state: hysteresis against flapping.
	a.release(11)
	if got := a.healthState(); got != healthShedding {
		t.Fatalf("state inside hold = %s, want shedding", healthName(got))
	}
	clock.advance(healthHold + time.Millisecond)
	if got := a.healthState(); got != healthOK {
		t.Fatalf("state after hold = %s, want ok", healthName(got))
	}
	// Degraded alone does not stamp shedding.
	a.charge(8)
	a.release(8)
	if got := a.healthState(); got != healthDegraded {
		t.Fatalf("state = %s, want degraded", healthName(got))
	}
	clock.advance(healthHold + time.Millisecond)
	if got := a.healthState(); got != healthOK {
		t.Fatalf("state after degraded hold = %s, want ok", healthName(got))
	}
}

// TestAdmissionFastPathAllocs gates the under-budget admission path at zero
// allocations: admit, healthState, and release must not allocate, or every
// request (and the AllocsPerRun acceptance criterion) pays for it.
func TestAdmissionFastPathAllocs(t *testing.T) {
	a := newAdmission(AdmissionConfig{Budget: 1 << 30})
	if got := testing.AllocsPerRun(200, func() {
		ok, _ := a.admit(1)
		if !ok {
			t.Fatal("admit refused under a huge budget")
		}
		_ = a.healthState()
		a.release(1)
	}); got != 0 {
		t.Fatalf("admission fast path allocates %v per run, want 0", got)
	}
}
