// Package breaker implements a circuit breaker: a three-state machine
// (closed / open / half-open) that watches a sliding window of call outcomes
// and stops sending traffic to an upstream that is failing, then probes it
// with a bounded trickle until it proves healthy again.
//
// The cluster scheduler holds one breaker per worker, via Set. The contract
// is deliberately minimal:
//
//	done, ok := b.Allow()
//	if !ok { /* refuse fast; the upstream is quarantined */ }
//	err := call()
//	done(err == nil /* or any success predicate */)
//
// Closed admits everything and records outcomes into a sliding window; when
// the window's failure ratio crosses the threshold (with a minimum sample
// count, so one early failure can't trip an idle breaker) it opens. Open
// refuses everything until its quarantine (openFor) ends, then moves to
// half-open. Half-open admits at most probeBudget concurrent probes:
// probeSuccesses consecutive successful probes close the breaker, any probe
// failure snaps it back to open for another full quarantine.
//
// Everything is stdlib-only and safe for concurrent use.
package breaker

import (
	"sync"
	"time"
)

// State is the breaker's position in the closed → open → half-open cycle.
type State int32

const (
	// Closed is normal operation: all calls admitted, outcomes recorded.
	Closed State = iota
	// Open is quarantine: all calls refused until openFor elapses.
	Open
	// HalfOpen is recovery probing: up to probeBudget concurrent calls
	// admitted; their outcomes decide between Closed and Open.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's thresholds. hmemd's coordinator is their one user, so they
// are constants rather than settings.
const (
	// window is the sliding outcome window size.
	window = 20
	// minSamples is the minimum number of recorded outcomes before the
	// failure ratio can trip the breaker. Below it the breaker stays closed
	// no matter what, so a cold upstream's first hiccup does not quarantine
	// it.
	minSamples = 5
	// failureRatio is the windowed failure fraction at or above which a
	// closed breaker trips.
	failureRatio = 0.5
	// openFor is the quarantine before an open breaker admits probes.
	openFor = 5 * time.Second
	// probeBudget bounds concurrent half-open probes: the recovering
	// upstream must not be re-flooded by every waiter at once.
	probeBudget = 1
	// probeSuccesses is the number of consecutive successful probes needed
	// to close again.
	probeSuccesses = 2
)

// Config carries a Breaker's hooks. The zero value is ready to use.
type Config struct {
	// Now is the clock (nil = time.Now) — the test seam.
	Now func() time.Time
	// OnTransition, when set, is called after every state change, outside
	// the breaker's lock (so it may call back into the breaker).
	OnTransition func(from, to State)
}

func (c Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Breaker is one circuit breaker. Create with New.
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	state    State
	outcomes [window]bool // ring buffer of recent outcomes (true = success)
	head     int          // next write slot
	n        int          // filled entries
	fails    int          // failures among the filled entries
	openedAt time.Time
	probes   int // in-flight half-open probes
	probeOK  int // consecutive successful probes this half-open episode

	// counters (guarded by mu; read via Stats)
	allowed, opens, closes uint64
}

// New builds a breaker starting Closed.
func New(cfg Config) *Breaker {
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed. When it returns true the caller
// MUST invoke done exactly once with the call's outcome (true = success);
// dropping it leaks a half-open probe slot. When it returns false the
// upstream is quarantined and the caller should fail fast or go elsewhere.
func (b *Breaker) Allow() (done func(success bool), ok bool) {
	var tr *transition
	b.mu.Lock()
	switch b.state {
	case Open:
		if b.cfg.now().Sub(b.openedAt) < openFor {
			b.mu.Unlock()
			return nil, false
		}
		tr = b.setState(HalfOpen)
		fallthrough
	case HalfOpen:
		if b.probes >= probeBudget {
			b.mu.Unlock()
			b.notify(tr)
			return nil, false
		}
		b.probes++
		b.allowed++
		b.mu.Unlock()
		b.notify(tr)
		return b.recordProbe, true
	default: // Closed
		b.allowed++
		b.mu.Unlock()
		return b.recordClosed, true
	}
}

// State returns the current state. An expired Open quarantine still reports
// Open until traffic arrives — transitions are driven by Allow, not by a
// timer goroutine.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats is a point-in-time snapshot of breaker activity.
type Stats struct {
	State         State
	Allowed       uint64
	Opens, Closes uint64
	// WindowSamples / WindowFailures describe the current sliding window.
	WindowSamples, WindowFailures int
}

// Stats snapshots the counters.
func (b *Breaker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		State:   b.state,
		Allowed: b.allowed,
		Opens:   b.opens, Closes: b.closes,
		WindowSamples: b.n, WindowFailures: b.fails,
	}
}

// transition is a pending OnTransition callback, invoked outside the lock.
type transition struct{ from, to State }

func (b *Breaker) notify(tr *transition) {
	if tr != nil && b.cfg.OnTransition != nil {
		b.cfg.OnTransition(tr.from, tr.to)
	}
}

// setState moves the machine and resets the episode-local bookkeeping. Must
// hold b.mu; the returned transition is fired by the caller after unlocking.
func (b *Breaker) setState(to State) *transition {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	switch to {
	case Open:
		b.opens++
		b.openedAt = b.cfg.now()
		b.resetWindow()
	case HalfOpen:
		b.probes = 0
		b.probeOK = 0
	case Closed:
		b.closes++
		b.resetWindow()
	}
	return &transition{from: from, to: to}
}

func (b *Breaker) resetWindow() {
	b.head, b.n, b.fails = 0, 0, 0
}

// push records one outcome into the sliding window. Must hold b.mu.
func (b *Breaker) push(success bool) {
	if b.n == window {
		if !b.outcomes[b.head] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.outcomes[b.head] = success
	if !success {
		b.fails++
	}
	b.head = (b.head + 1) % window
}

// recordClosed lands the outcome of a call admitted while Closed. Outcomes
// arriving after the breaker already left Closed (a slow call racing a trip)
// are dropped — the episode they describe is over.
func (b *Breaker) recordClosed(success bool) {
	var tr *transition
	b.mu.Lock()
	if b.state == Closed {
		b.push(success)
		if b.n >= minSamples && float64(b.fails) >= failureRatio*float64(b.n) {
			tr = b.setState(Open)
		}
	}
	b.mu.Unlock()
	b.notify(tr)
}

// recordProbe lands the outcome of a half-open probe: enough consecutive
// successes close the breaker, any failure re-opens it for a full openFor.
func (b *Breaker) recordProbe(success bool) {
	var tr *transition
	b.mu.Lock()
	if b.probes > 0 {
		b.probes--
	}
	switch b.state {
	case HalfOpen:
		if success {
			b.probeOK++
			if b.probeOK >= probeSuccesses {
				tr = b.setState(Closed)
			}
		} else {
			tr = b.setState(Open)
		}
	case Closed:
		// A sibling probe already closed us; this outcome is ordinary
		// closed-state evidence.
		b.push(success)
	}
	b.mu.Unlock()
	b.notify(tr)
}
