package load

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hmem/internal/obs"
	"hmem/internal/service"
	"hmem/internal/xrand"
)

// Config parameterizes one load run (or one segment of a resumed soak).
type Config struct {
	// BaseURL is the target daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Profile selects the operation mix.
	Profile Profile
	// Seed drives every random decision of the run.
	Seed uint64
	// Workers is the goroutine pool size (default 4).
	Workers int
	// TargetRPS paces the run in open-loop mode; <= 0 runs closed-loop
	// (every worker fires its next op as soon as the last returns).
	TargetRPS float64
	// Duration bounds the segment's wall clock; 0 means "until MaxOps" (one
	// of the two must bound the run, or ctx must).
	Duration time.Duration
	// MaxOps bounds the number of operations; 0 means unbounded.
	MaxOps uint64
	// StartOp is the op cursor to begin at — a resumed soak continues where
	// the saved execution context left off, so the combined run issues the
	// same schedule as an uninterrupted one.
	StartOp uint64
	// Retries/Backoff configure the per-worker client's retry loop.
	Retries int
	Backoff time.Duration
	// RecordsPerCore/FaultTrials, when positive, are attached to every
	// request's options patch — CI smokes shrink the simulations so the run
	// measures the service path, not the simulator.
	RecordsPerCore int
	FaultTrials    int
	// Transport, when set, underlies every worker's HTTP client — the seam
	// where a chaos.Injector's RoundTripper composes with the load.
	Transport http.RoundTripper
	// Registry receives the run's hmemload_* metric families (nil: a
	// private registry, exposed via Summary only).
	Registry *obs.Registry
}

// latencyBounds are the load histogram buckets: log-spaced from 0.5ms to 5
// minutes, tight where the sync endpoints live.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// recorder owns the run's metrics: the obs families (for the text artifact)
// plus the per-class aggregation the Summary is built from.
type recorder struct {
	requests *obs.CounterVec
	duration *obs.HistogramVec
	shed     *obs.CounterVec

	mu     sync.Mutex
	counts map[string]map[string]uint64 // class -> outcome -> n
}

func newRecorder(reg *obs.Registry) *recorder {
	return &recorder{
		requests: reg.CounterVec("hmemload_requests_total",
			"Operations issued, by endpoint class and outcome.", "class", "outcome"),
		duration: reg.HistogramVec("hmemload_op_duration_seconds",
			"End-to-end operation latency by endpoint class.", latencyBounds, "class"),
		shed: reg.CounterVec("hmemload_shed_total",
			"Requests the server shed, by status code.", "code"),
		counts: map[string]map[string]uint64{},
	}
}

func (r *recorder) observe(class string, err error, d time.Duration) {
	outcome := classify(err)
	r.requests.With(class, outcome).Inc()
	r.duration.With(class).Observe(d.Seconds())
	// Hinted sheds keep their status-code label too, so the shed counters
	// stay an honest 429/503 tally whether or not the hint was present.
	switch {
	case outcome == OutcomeHTTP429 || (outcome == OutcomeShedHinted && shedStatus(err) == http.StatusTooManyRequests):
		r.shed.With("429").Inc()
	case outcome == OutcomeHTTP503 || (outcome == OutcomeShedHinted && shedStatus(err) == http.StatusServiceUnavailable):
		r.shed.With("503").Inc()
	}
	r.mu.Lock()
	m := r.counts[class]
	if m == nil {
		m = map[string]uint64{}
		r.counts[class] = m
	}
	m[outcome]++
	r.mu.Unlock()
}

// ClassSummary is one endpoint class's aggregate over a run segment.
type ClassSummary struct {
	Requests uint64            `json:"requests"`
	Outcomes map[string]uint64 `json:"outcomes"`
	// ErrorRate is errors / (requests - canceled); deadline-cut operations
	// say nothing about the server and are excluded from the budget.
	ErrorRate float64 `json:"error_rate"`
	P50MS     float64 `json:"p50_ms"`
	P90MS     float64 `json:"p90_ms"`
	P99MS     float64 `json:"p99_ms"`
	P999MS    float64 `json:"p999_ms"`
}

// Summary is the result of one Run.
type Summary struct {
	Profile        string                  `json:"profile"`
	Seed           uint64                  `json:"seed"`
	Workers        int                     `json:"workers"`
	TargetRPS      float64                 `json:"target_rps,omitempty"`
	AchievedRPS    float64                 `json:"achieved_rps"`
	ElapsedSeconds float64                 `json:"elapsed_seconds"`
	Ops            uint64                  `json:"ops"`
	NextOp         uint64                  `json:"next_op"`
	Classes        map[string]ClassSummary `json:"classes"`
	Shed           map[string]uint64       `json:"shed,omitempty"`
}

// ErrorRate is the run-wide error fraction, canceled excluded.
func (s *Summary) ErrorRate() float64 {
	var errs, considered uint64
	for _, cs := range s.Classes {
		for outcome, n := range cs.Outcomes {
			if outcome != OutcomeCanceled {
				considered += n
			}
			if IsError(outcome) {
				errs += n
			}
		}
	}
	if considered == 0 {
		return 0
	}
	return float64(errs) / float64(considered)
}

// UnhintedErrorRate is ErrorRate with honest sheds (429/503 + Retry-After)
// forgiven: the error fraction a browned-out server cannot excuse. Canceled
// stays excluded; hinted sheds stay in the denominator — they are real
// responses, just not failures of the overload contract.
func (s *Summary) UnhintedErrorRate() float64 {
	var errs, considered uint64
	for _, cs := range s.Classes {
		for outcome, n := range cs.Outcomes {
			if outcome != OutcomeCanceled {
				considered += n
			}
			if IsError(outcome) && outcome != OutcomeShedHinted {
				errs += n
			}
		}
	}
	if considered == 0 {
		return 0
	}
	return float64(errs) / float64(considered)
}

// Run executes one load segment against cfg.BaseURL and returns its Summary.
// It returns early only on configuration errors; server misbehavior is data,
// not an error.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("load: BaseURL required")
	}
	if len(cfg.Profile.mix) == 0 {
		return nil, fmt.Errorf("load: profile %q has no operation mix", cfg.Profile.Name)
	}
	if cfg.Duration <= 0 && cfg.MaxOps == 0 {
		return nil, errors.New("load: unbounded run; set Duration or MaxOps")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rec := newRecorder(reg)
	targetGauge := reg.Gauge("hmemload_target_rps", "Configured pacing target (0 = closed loop).")
	achievedGauge := reg.Gauge("hmemload_achieved_rps", "Operations completed per second over the segment.")
	targetGauge.Set(cfg.TargetRPS)

	runCtx := ctx
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	var tokens chan struct{}
	if cfg.TargetRPS > 0 {
		tokens = make(chan struct{}, workers)
		go pace(runCtx, cfg.TargetRPS, tokens)
	}

	limit := uint64(math.MaxUint64)
	if cfg.MaxOps > 0 {
		limit = cfg.StartOp + cfg.MaxOps
	}
	var cursor atomic.Uint64
	cursor.Store(cfg.StartOp)
	var done atomic.Uint64

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each worker owns a client with a private seeded jitter stream:
			// retry timing is a function of (seed, worker id, draw number),
			// never of the process-global generator.
			jitter := xrand.New(xrand.Derive(cfg.Seed, jitterSalt, uint64(id)))
			client := &service.Client{
				BaseURL: cfg.BaseURL,
				Retries: cfg.Retries,
				Backoff: cfg.Backoff,
				Rand:    jitter.Uint64n,
			}
			if cfg.Transport != nil {
				client.HTTPClient = &http.Client{Transport: cfg.Transport, Timeout: 5 * time.Minute}
			}
			for {
				if runCtx.Err() != nil {
					return
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-runCtx.Done():
						return
					}
				}
				idx := cursor.Add(1) - 1
				if idx >= limit {
					return
				}
				op := OpAt(cfg.Profile, cfg.Seed, idx)
				t0 := time.Now()
				err := executeOp(runCtx, client, cfg, op)
				rec.observe(op.Class, err, time.Since(t0))
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	next := cursor.Load()
	if next > limit {
		next = limit
	}
	sum := &Summary{
		Profile:        cfg.Profile.Name,
		Seed:           cfg.Seed,
		Workers:        workers,
		TargetRPS:      cfg.TargetRPS,
		ElapsedSeconds: elapsed.Seconds(),
		Ops:            done.Load(),
		NextOp:         next,
		Classes:        map[string]ClassSummary{},
		Shed:           map[string]uint64{},
	}
	if elapsed > 0 {
		sum.AchievedRPS = float64(sum.Ops) / elapsed.Seconds()
	}
	achievedGauge.Set(sum.AchievedRPS)
	rec.mu.Lock()
	for class, outcomes := range rec.counts {
		cs := ClassSummary{Outcomes: map[string]uint64{}}
		var errs, considered uint64
		for outcome, n := range outcomes {
			cs.Outcomes[outcome] = n
			cs.Requests += n
			if outcome != OutcomeCanceled {
				considered += n
			}
			if IsError(outcome) {
				errs += n
			}
		}
		if considered > 0 {
			cs.ErrorRate = float64(errs) / float64(considered)
		}
		snap := rec.duration.With(class).Snapshot()
		cs.P50MS = snap.Quantile(0.50) * 1e3
		cs.P90MS = snap.Quantile(0.90) * 1e3
		cs.P99MS = snap.Quantile(0.99) * 1e3
		cs.P999MS = snap.Quantile(0.999) * 1e3
		sum.Classes[class] = cs
	}
	rec.mu.Unlock()
	for _, code := range []string{"429", "503"} {
		if n := rec.shed.With(code).Value(); n > 0 {
			sum.Shed[code] = n
		}
	}
	return sum, nil
}

// pace feeds tokens at rps using a fractional accumulator over a 5ms tick.
// The token channel's buffer is the burst allowance; when the workers can't
// keep up, excess budget is dropped (the shortfall shows up as achieved <
// target) rather than banked into a thundering burst.
func pace(ctx context.Context, rps float64, tokens chan struct{}) {
	const tick = 5 * time.Millisecond
	t := time.NewTicker(tick)
	defer t.Stop()
	var carry float64
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			carry += rps * tick.Seconds()
			for carry >= 1 {
				select {
				case tokens <- struct{}{}:
					carry--
				default:
					carry = 0 // saturated: shed the budget, don't bank it
				}
			}
		}
	}
}

// jobFailedError marks a job that terminated in a non-done state.
type jobFailedError struct {
	id, state, msg string
}

func (e *jobFailedError) Error() string {
	return fmt.Sprintf("job %s %s: %s", e.id, e.state, e.msg)
}

// batchItemsError marks a batch whose stream completed but carried item
// failures — the transport worked, some evaluations did not.
type batchItemsError struct {
	items, errors int
}

func (e *batchItemsError) Error() string {
	return fmt.Sprintf("batch: %d of %d items failed", e.errors, e.items)
}

// executeOp performs one scripted operation through the typed client.
func executeOp(ctx context.Context, c *service.Client, cfg Config, op Op) error {
	patch := &service.OptionsPatch{
		Seed:           op.Seed,
		RecordsPerCore: cfg.RecordsPerCore,
		FaultTrials:    cfg.FaultTrials,
	}
	switch op.Class {
	case ClassEvaluate:
		_, err := c.Evaluate(ctx, service.EvaluateRequest{
			Workload: op.Workload, Policy: op.Policy, Options: patch,
		})
		return err
	case ClassCompare:
		_, err := c.Compare(ctx, service.CompareRequest{
			Workload: op.Workload, Policies: op.Policies, Options: patch,
		})
		return err
	case ClassSubmit:
		st, err := c.SubmitJob(ctx, service.JobRequest{
			Experiment: op.Experiment, Options: patch,
			// The key is deterministic, so a retried submission after a lost
			// response lands on the same job instead of double-enqueueing.
			IdempotencyKey: fmt.Sprintf("load-%d-%d", cfg.Seed, op.Index),
		})
		if err != nil {
			return err
		}
		return pollJob(ctx, c, st)
	case ClassWatch:
		st, err := c.SubmitJob(ctx, service.JobRequest{
			Experiment: op.Experiment, Options: patch,
			IdempotencyKey: fmt.Sprintf("loadw-%d-%d", cfg.Seed, op.Index),
		})
		if err != nil {
			return err
		}
		final, err := c.WaitJob(ctx, st.ID, nil)
		if err != nil {
			return err
		}
		if final.State != service.JobDone {
			return &jobFailedError{id: final.ID, state: final.State, msg: final.Error}
		}
		return nil
	case ClassList:
		_, _, err := c.Jobs(ctx, op.Limit, op.Offset)
		return err
	case ClassBatch:
		items := make([]service.BatchItem, len(op.Policies))
		for i, p := range op.Policies {
			items[i] = service.BatchItem{
				ID:       fmt.Sprintf("op%d-%d", op.Index, i),
				Workload: op.Workload, Policy: p, Options: patch,
			}
		}
		_, sum, err := c.CollectBatch(ctx, service.BatchRequest{Items: items})
		if err != nil {
			return err
		}
		if sum.Errors > 0 {
			return &batchItemsError{items: sum.Items, errors: sum.Errors}
		}
		return nil
	default:
		return fmt.Errorf("load: unknown op class %q", op.Class)
	}
}

// pollJob polls a submitted job until it terminates, backing off from 2ms to
// 50ms between polls.
func pollJob(ctx context.Context, c *service.Client, st service.JobStatus) error {
	delay := 2 * time.Millisecond
	for {
		if st.State == service.JobDone {
			return nil
		}
		if st.State == service.JobFailed || st.State == service.JobCancelled {
			return &jobFailedError{id: st.ID, state: st.State, msg: st.Error}
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		if delay < 50*time.Millisecond {
			delay *= 2
		}
		var err error
		st, err = c.Job(ctx, st.ID)
		if err != nil {
			return err
		}
	}
}

// classify maps an operation error to its outcome bucket.
func classify(err error) string {
	if err == nil {
		return OutcomeOK
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return OutcomeCanceled
	}
	var jf *jobFailedError
	if errors.As(err, &jf) {
		return OutcomeFailed
	}
	var be *batchItemsError
	if errors.As(err, &be) {
		return OutcomeFailed
	}
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.StatusCode == http.StatusTooManyRequests:
			if apiErr.RetryAfter > 0 {
				return OutcomeShedHinted
			}
			return OutcomeHTTP429
		case apiErr.StatusCode == http.StatusServiceUnavailable:
			if apiErr.RetryAfter > 0 {
				return OutcomeShedHinted
			}
			return OutcomeHTTP503
		case apiErr.StatusCode >= 500:
			return OutcomeHTTP5xx
		default:
			return OutcomeHTTP4xx
		}
	}
	return OutcomeTransport
}

// shedStatus extracts the HTTP status of a shed response (0 when not an API
// error) — the code label for hinted sheds.
func shedStatus(err error) int {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode
	}
	return 0
}
