package service

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Health states for the ok → degraded → shedding ladder /healthz and
// hmemd_health_state expose. Draining (shutdown in progress) sits above them
// all and is reported separately.
const (
	healthOK = iota
	healthDegraded
	healthShedding
	healthDraining
)

func healthName(st int) string {
	switch st {
	case healthOK:
		return "ok"
	case healthDegraded:
		return "degraded"
	case healthShedding:
		return "shedding"
	case healthDraining:
		return "draining"
	}
	return "unknown"
}

// AdmissionConfig tunes the cost-based admission controller. The zero value
// gives sane defaults; admission cannot be disabled (with an effectively
// infinite budget it just never sheds).
type AdmissionConfig struct {
	// Budget is the in-flight cost ceiling in units of one default-shaped
	// evaluation (<=0 = 4 × GOMAXPROCS, floored at 32 so a single running
	// job — jobCostFactor units — cannot push a small machine into
	// degraded health by itself). A request arriving while in-flight cost
	// is at or above the budget is shed with 429 + Retry-After; cost-0
	// requests (memo hits) are always admitted.
	Budget float64
	// Now is the clock (nil = time.Now) — the test seam.
	Now func() time.Time
}

const (
	// degradedRatio is the in-flight/budget fraction at which /healthz
	// reports degraded and job submission is refused; sheddingRatio the one
	// at which every costed endpoint is refused.
	degradedRatio = 0.75
	sheddingRatio = 1.0
	// healthHold is how long a crossed threshold keeps its health state
	// after load drops back under it — hysteresis so the state does not
	// flap request-to-request.
	healthHold = 2 * time.Second
	// jobCostFactor prices one experiment job in evaluation units: a figure
	// driver fans out to many evaluations.
	jobCostFactor = 8
	// maxRetryAfterSecs caps the drain-rate-derived hint: past a minute the
	// estimate is noise and clients should poll, not sleep.
	maxRetryAfterSecs = 60
	// ewmaAlpha is the smoothing factor for the drain-rate estimators: new
	// sample weighted 1/5, matching a ~5-observation memory.
	ewmaAlpha = 0.2
)

// admission is the server-side cost-based admission controller: it tracks
// the summed cost of admitted in-flight work against a budget, sheds the
// excess, estimates the drain rate from completions so refusals carry an
// honest Retry-After, and stamps the degraded/shedding health states when
// load crosses their thresholds.
//
// The under-budget path (admit, release, healthState) is allocation-free —
// the AllocsPerRun gate in admission_test pins that.
type admission struct {
	budget     float64
	degradedAt float64 // cost threshold, not ratio
	sheddingAt float64
	now        func() time.Time

	// inflightBits holds math.Float64bits of the summed in-flight cost,
	// updated by CAS so admit/release stay lock- and allocation-free.
	inflightBits atomic.Uint64
	admitted     atomic.Uint64
	shed         atomic.Uint64

	// degradedUntil / sheddingUntil hold the UnixNano until which the state
	// is pinned; crossing a threshold re-stamps now+hold. Reading health is
	// then just two atomic loads against the clock — self-recovering with no
	// timer goroutine.
	degradedUntil atomic.Int64
	sheddingUntil atomic.Int64

	// drain estimates completed cost units per second; jobsDrain estimates
	// completed jobs per second (the queue-full Retry-After hint).
	drain     ewmaRate
	jobsDrain ewmaRate
}

func newAdmission(cfg AdmissionConfig) *admission {
	budget := cfg.Budget
	if budget <= 0 {
		budget = 4 * float64(runtime.GOMAXPROCS(0))
		if budget < 32 {
			budget = 32
		}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	a := &admission{
		budget:     budget,
		degradedAt: degradedRatio * budget,
		sheddingAt: sheddingRatio * budget,
		now:        now,
	}
	a.drain.now = now
	a.jobsDrain.now = now
	return a
}

// admit tries to reserve cost against the budget. A request arriving while
// in-flight cost is already at or above budget is refused (shed) with a
// drain-rate-derived Retry-After hint in seconds; the request that crosses
// the line is still admitted, so a single over-budget request cannot starve
// an idle server. Cost-0 requests (memo hits) are always admitted. Every
// admitted cost must be returned via release exactly once.
func (a *admission) admit(cost float64) (ok bool, retryAfterSecs int) {
	for {
		old := a.inflightBits.Load()
		cur := math.Float64frombits(old)
		if cost > 0 && cur >= a.budget {
			a.shed.Add(1)
			a.stampHealth(cur + cost)
			return false, retryAfterSeconds(cur+cost-a.budget, a.drain.rate())
		}
		if a.inflightBits.CompareAndSwap(old, math.Float64bits(cur+cost)) {
			a.admitted.Add(1)
			a.stampHealth(cur + cost)
			return true, 0
		}
	}
}

// charge reserves cost unconditionally — for work the server already
// committed to (a 202-acknowledged job entering execution) that cannot be
// shed anymore but must still weigh on the health state and future
// admissions. Pair with release.
func (a *admission) charge(cost float64) {
	for {
		old := a.inflightBits.Load()
		cur := math.Float64frombits(old)
		if a.inflightBits.CompareAndSwap(old, math.Float64bits(cur+cost)) {
			a.stampHealth(cur + cost)
			return
		}
	}
}

// release returns an admitted (or charged) cost and feeds the drain-rate
// estimator with the completion.
func (a *admission) release(cost float64) {
	if cost <= 0 {
		return
	}
	for {
		old := a.inflightBits.Load()
		next := math.Float64frombits(old) - cost
		if next < 0 {
			next = 0 // defensive: a double release must not wedge admission
		}
		if a.inflightBits.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	a.drain.observe(cost)
}

// inflight reads the current summed in-flight cost.
func (a *admission) inflight() float64 {
	return math.Float64frombits(a.inflightBits.Load())
}

// stampHealth pins degraded/shedding for the hold window when load crosses
// their thresholds. Called on every admission-path event; allocation-free.
func (a *admission) stampHealth(load float64) {
	if load >= a.sheddingAt {
		until := a.now().Add(healthHold).UnixNano()
		a.sheddingUntil.Store(until)
		a.degradedUntil.Store(until)
	} else if load >= a.degradedAt {
		a.degradedUntil.Store(a.now().Add(healthHold).UnixNano())
	}
}

// healthState reads the current rung of the ok → degraded → shedding ladder.
func (a *admission) healthState() int {
	now := a.now().UnixNano()
	if now < a.sheddingUntil.Load() {
		return healthShedding
	}
	if now < a.degradedUntil.Load() {
		return healthDegraded
	}
	return healthOK
}

// retryAfterSeconds converts an over-budget excess (in cost units) and a
// measured drain rate (units per second) into an honest Retry-After hint:
// the ceiling of the time the backlog needs to drain, clamped to [1, 60]
// seconds. An unmeasured rate (no completions yet) or no excess degrades to
// the pre-adaptive constant 1. Pure — pinned by a table-driven test.
func retryAfterSeconds(excess, rate float64) int {
	if excess <= 0 || rate <= 0 || math.IsNaN(excess) || math.IsNaN(rate) {
		return 1
	}
	secs := math.Ceil(excess / rate)
	if secs < 1 {
		return 1
	}
	if secs > maxRetryAfterSecs {
		return maxRetryAfterSecs
	}
	return int(secs)
}

// ewmaRate estimates an event rate (units per second) as an EWMA of
// instantaneous rates between observations. A mutex serializes the
// (last, rate) pair; Lock/Unlock do not allocate, keeping release on the
// zero-alloc admission path.
type ewmaRate struct {
	now func() time.Time

	mu      sync.Mutex
	last    time.Time
	pending float64 // units completed since the last rate sample
	ewma    float64
}

// observe records units completed at the current instant.
func (e *ewmaRate) observe(units float64) {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		// First completion: no interval yet, just start the clock.
		e.last = now
		return
	}
	e.pending += units
	dt := now.Sub(e.last).Seconds()
	if dt <= 0 {
		// Same-instant completion: credit the units to the next interval —
		// a rate over zero elapsed time would blow up.
		return
	}
	inst := e.pending / dt
	if e.ewma == 0 {
		e.ewma = inst
	} else {
		e.ewma += ewmaAlpha * (inst - e.ewma)
	}
	e.pending = 0
	e.last = now
}

// rate reads the current estimate (0 until two observations have landed).
func (e *ewmaRate) rate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ewma
}
