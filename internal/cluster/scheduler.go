package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hmem/internal/breaker"
	"hmem/internal/exec"
	"hmem/internal/obs"
)

// ErrNoWorkers reports that a shard could not be placed: the registry is
// empty, or every candidate failed at the transport level. The caller (the
// service's cluster delegate) falls back to local computation — a coordinator
// alone is still a correct, if slower, hmemd.
var ErrNoWorkers = errors.New("cluster: no live workers to place shard on")

// maxAttempts bounds the distinct workers tried per shard, mirroring the
// journal's bounded attempt counting so a poison shard cannot ricochet around
// the cluster forever.
const maxAttempts = 3

// WorkerError is an application-level failure returned by a worker: the
// shard was delivered and the computation itself failed. Shards are
// deterministic, so the same failure would reproduce on every node — the
// scheduler propagates it instead of burning the remaining candidates.
type WorkerError struct {
	Status  int
	Message string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("cluster: worker HTTP %d: %s", e.Status, e.Message)
}

// retryableStatus reports worker responses worth trying elsewhere: 429/503
// are load shedding or drain, not verdicts about the shard.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// Scheduler places shards on registered workers and collects their results.
// Placement is consistent-hash by shard key (repeat shards land on the node
// whose memo already holds the result); failures retry on the next ring
// candidate; stragglers are raced against a hedged duplicate dispatch — all
// safe because shard results are pure functions of their descriptors.
// Results are memoized success-only (exec.Memo), so one transient outage
// never poisons a key. Safe for concurrent use.
type Scheduler struct {
	// Registry supplies live workers and ring placement.
	Registry *Registry
	// Client is the HTTP client for worker calls (wrap its Transport with
	// chaos.RoundTripper or chaos.HostFaults to inject faults). Nil uses a
	// default client with no overall timeout — per-call contexts bound each
	// request.
	Client *http.Client
	// StealAfter enables hedging and bounds its delay (0 disables it). When
	// the owner has not answered in time, a duplicate dispatch goes to the
	// next ring candidate; first success wins and the loser's result is
	// discarded. The delay is hedgeMultiplier × the p90 of recent shard
	// latencies, clamped to [StealAfter/4, StealAfter]; until hedgeMinSamples
	// latencies exist it is StealAfter itself.
	StealAfter time.Duration
	// Breakers, when set, quarantines failing workers: placement skips
	// candidates whose breaker refuses, dispatch outcomes feed it (transport
	// failures and retryable statuses count against the worker; application
	// errors do not — the shard, not the worker, is broken). Workers with an
	// open breaker are probed by the breaker's half-open trickle instead of
	// being binary-expired from the ring.
	Breakers *breaker.Set
	// RequestTimeout bounds one shard POST (<=0 means 10 minutes —
	// simulations are slow, wedged workers are not).
	RequestTimeout time.Duration
	// PeerTimeout bounds one peer-cache GET (<=0 means 2 seconds).
	PeerTimeout time.Duration
	// Logf, when set, receives placement decisions worth an operator's
	// attention (retries, hedges, fallbacks).
	Logf func(format string, args ...any)

	cache exec.Memo[string, []byte]

	placed, retries, hedges, peerHits, breakerSkips atomic.Uint64

	// hedgeEarnedMilli/hedgeSpent implement the global hedge budget in
	// milli-tokens: each placement earns hedgeRatio×1000, each hedge spends
	// 1000, and hedgeBurst×1000 is free up front.
	hedgeEarnedMilli atomic.Uint64
	hedgeSpent       atomic.Uint64

	// lat samples successful shard round-trip latencies for the adaptive
	// hedge delay.
	lat latencyWindow
}

// Hedging constants. Hedging at 2× the p90 duplicates only genuine
// outliers; the clamp floor stops a burst of fast cache-adjacent shards from
// collapsing the delay to microseconds. The budget allows one hedge per four
// placements beyond a burst of two, so hedges cannot amplify an overload.
const (
	hedgeQuantile   = 0.9
	hedgeMultiplier = 2
	hedgeRatio      = 0.25
	hedgeBurst      = 2
)

func (s *Scheduler) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

func (s *Scheduler) requestTimeout() time.Duration {
	if s.RequestTimeout > 0 {
		return s.RequestTimeout
	}
	return 10 * time.Minute
}

func (s *Scheduler) peerTimeout() time.Duration {
	if s.PeerTimeout > 0 {
		return s.PeerTimeout
	}
	return 2 * time.Second
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// hedgeDelay picks this dispatch's hedge delay: the latency-derived delay
// once enough samples exist, StealAfter until then. Zero disables hedging.
func (s *Scheduler) hedgeDelay() time.Duration {
	if s.StealAfter <= 0 {
		return 0
	}
	q, ok := s.lat.quantile(hedgeQuantile)
	if !ok {
		return s.StealAfter
	}
	d := time.Duration(hedgeMultiplier * q * float64(time.Second))
	return min(max(d, s.StealAfter/4), s.StealAfter)
}

// earnHedge credits the budget for one primary placement.
func (s *Scheduler) earnHedge() {
	s.hedgeEarnedMilli.Add(uint64(hedgeRatio * 1000))
}

// spendHedge tries to debit one hedge from the global budget.
func (s *Scheduler) spendHedge() bool {
	for {
		spent := s.hedgeSpent.Load()
		if (spent+1)*1000 > hedgeBurst*1000+s.hedgeEarnedMilli.Load() {
			return false
		}
		if s.hedgeSpent.CompareAndSwap(spent, spent+1) {
			return true
		}
	}
}

// workerHealthy is the breaker's success predicate for one dispatch: nil is
// healthy, and so is a non-retryable WorkerError — the worker answered, the
// shard itself is deterministically broken. Transport failures, timeouts,
// and 429/503 count against the worker.
func workerHealthy(err error) bool {
	if err == nil {
		return true
	}
	var werr *WorkerError
	return errors.As(err, &werr) && !retryableStatus(werr.Status)
}

// latencyWindow is a fixed-capacity ring of recent successful shard
// latencies (seconds). quantile sorts a copy; with fewer than
// hedgeMinSamples entries it reports no estimate so early dispatches fall
// back to StealAfter.
type latencyWindow struct {
	mu      sync.Mutex
	samples [latencyWindowCap]float64
	head, n int
}

const (
	latencyWindowCap = 128
	hedgeMinSamples  = 8
)

func (lw *latencyWindow) observe(d time.Duration) {
	lw.mu.Lock()
	lw.samples[lw.head] = d.Seconds()
	lw.head = (lw.head + 1) % latencyWindowCap
	if lw.n < latencyWindowCap {
		lw.n++
	}
	lw.mu.Unlock()
}

func (lw *latencyWindow) quantile(q float64) (float64, bool) {
	lw.mu.Lock()
	if lw.n < hedgeMinSamples {
		lw.mu.Unlock()
		return 0, false
	}
	tmp := make([]float64, lw.n)
	copy(tmp, lw.samples[:lw.n])
	lw.mu.Unlock()
	sort.Float64s(tmp)
	idx := int(q * float64(len(tmp)-1))
	return tmp[idx], true
}

// Peek exposes the scheduler's completed-shard cache, so a coordinator also
// answers peer-cache lookups.
func (s *Scheduler) Peek(key string) ([]byte, bool) { return s.cache.Peek(key) }

// Run places one shard and returns its raw result payload. Concurrent calls
// for the same shard share one dispatch; a completed shard is served from
// cache without touching the network.
func (s *Scheduler) Run(ctx context.Context, sh Shard) ([]byte, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	key := sh.Key()
	return s.cache.DoCtx(ctx, key, func() ([]byte, error) {
		// Detach: the dispatch outcome is shared with every requester of the
		// key, so it must not record one caller's cancellation. Observability
		// (spans, progress) rides along.
		return s.dispatch(obs.Detach(ctx), sh, key)
	})
}

// RunAll places shards on at most workers concurrent dispatches and returns
// payloads in shard order — the deterministic merge the cluster's
// byte-identity rests on.
func (s *Scheduler) RunAll(ctx context.Context, workers int, shards []Shard) ([][]byte, error) {
	return exec.Map(ctx, workers, len(shards), func(i int) ([]byte, error) {
		return s.Run(ctx, shards[i])
	})
}

// dispatch drives one shard to completion: peer-cache scan, then placement
// on the ring owner with bounded retry-on-another-worker and hedging of
// stragglers, both consulting per-worker circuit breakers so quarantined
// workers are skipped rather than tried.
func (s *Scheduler) dispatch(ctx context.Context, sh Shard, key string) ([]byte, error) {
	if obs.Enabled(ctx) {
		var sp *obs.Span
		ctx, sp = obs.Start(ctx, "cluster.shard",
			obs.Str("key", key), obs.Str("shard", sh.String()))
		defer sp.End()
	}
	cands := s.Registry.Owners(key, maxAttempts)
	if len(cands) == 0 {
		return nil, ErrNoWorkers
	}
	if b, ok := s.peerLookup(ctx, key); ok {
		return b, nil
	}

	type outcome struct {
		body []byte
		err  error
		from Worker
	}
	ch := make(chan outcome, len(cands))
	inflight, next := 0, 0
	// launchNext starts the dispatch on the next candidate whose breaker
	// admits it, reporting the worker it landed on. Breaker-refused
	// candidates are consumed (skipped), so an open breaker quarantines its
	// worker from placement entirely.
	launchNext := func() (Worker, bool) {
		for next < len(cands) {
			w := cands[next]
			next++
			var done func(bool)
			if s.Breakers != nil {
				var ok bool
				done, ok = s.Breakers.Get(w.ID).Allow()
				if !ok {
					s.breakerSkips.Add(1)
					s.logf("cluster: shard %s skipping %s (breaker open)", key, w.ID)
					continue
				}
			}
			s.placed.Add(1)
			s.earnHedge()
			inflight++
			go func(w Worker, done func(bool)) {
				start := time.Now()
				body, err := s.post(ctx, w, sh)
				if done != nil {
					done(workerHealthy(err))
				}
				if err == nil {
					s.lat.observe(time.Since(start))
				}
				ch <- outcome{body: body, err: err, from: w}
			}(w, done)
			return w, true
		}
		return Worker{}, false
	}
	primary, ok := launchNext()
	if !ok {
		return nil, fmt.Errorf("%w (all %d candidates quarantined by breakers)", ErrNoWorkers, len(cands))
	}
	var hedgeT <-chan time.Time
	if d := s.hedgeDelay(); d > 0 && next < len(cands) {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeT = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case out := <-ch:
			inflight--
			if out.err == nil {
				return out.body, nil
			}
			var werr *WorkerError
			if errors.As(out.err, &werr) && !retryableStatus(werr.Status) {
				// Deterministic application failure: same everywhere.
				return nil, out.err
			}
			lastErr = out.err
			if w, ok := launchNext(); ok {
				s.retries.Add(1)
				s.logf("cluster: shard %s failed on %s (%v), retrying on %s",
					key, out.from.ID, out.err, w.ID)
			}
		case <-hedgeT:
			hedgeT = nil
			if next < len(cands) && s.spendHedge() {
				if w, ok := launchNext(); ok {
					s.hedges.Add(1)
					s.logf("cluster: shard %s straggling on %s, hedging onto %s",
						key, primary.ID, w.ID)
				}
			}
		}
	}
	return nil, fmt.Errorf("%w (tried %d; last: %v)", ErrNoWorkers, next, lastErr)
}

// peerLookup scans live workers for an already-memoized result before any
// recompute: ring candidates first (most likely holders), then the rest in
// ID order. Misses are cheap 404s; a hit skips a whole simulation.
func (s *Scheduler) peerLookup(ctx context.Context, key string) ([]byte, bool) {
	seen := make(map[string]struct{})
	scan := append(s.Registry.Owners(key, maxAttempts), s.Registry.Snapshot()...)
	for _, w := range scan {
		if _, dup := seen[w.ID]; dup {
			continue
		}
		seen[w.ID] = struct{}{}
		cctx, cancel := context.WithTimeout(ctx, s.peerTimeout())
		body, err := s.get(cctx, w.URL+"/v1/cluster/cache/"+key)
		cancel()
		if err == nil {
			s.peerHits.Add(1)
			return body, true
		}
	}
	return nil, false
}

// post delivers a shard to one worker and returns the raw result payload.
func (s *Scheduler) post(ctx context.Context, w Worker, sh Shard) ([]byte, error) {
	buf, err := json.Marshal(sh)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding shard: %w", err)
	}
	cctx, cancel := context.WithTimeout(ctx, s.requestTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost,
		strings.TrimRight(w.URL, "/")+"/v1/cluster/shard", bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("cluster: building shard request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: posting shard to %s: %w", w.ID, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading shard response from %s: %w", w.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, &WorkerError{Status: resp.StatusCode, Message: msg}
	}
	return body, nil
}

// get fetches one peer-cache entry; any non-200 is a miss.
func (s *Scheduler) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: peer cache HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
}

// maxShardResponse bounds one shard payload (a sim.Result with snapshots is
// O(pages); 64 MB is far above any real payload, low enough to stop a
// misbehaving peer from exhausting memory).
const maxShardResponse = 64 << 20

// SchedulerStats is a point-in-time snapshot of placement activity, mirrored
// onto /metrics by the service.
type SchedulerStats struct {
	// Placed counts shard dispatches sent to workers (including retries and
	// hedges).
	Placed uint64
	// Retries counts re-placements after a failed dispatch.
	Retries uint64
	// Hedges counts duplicate dispatches launched against stragglers.
	Hedges uint64
	// BreakerSkips counts placement candidates passed over because their
	// worker's breaker refused.
	BreakerSkips uint64
	// PeerHits counts shards answered from another node's cache.
	PeerHits uint64
	// CacheHits/CacheMisses are the coordinator-side shard cache counters.
	CacheHits, CacheMisses uint64
}

// Stats returns the placement counters.
func (s *Scheduler) Stats() SchedulerStats {
	cs := s.cache.Stats()
	return SchedulerStats{
		Placed:       s.placed.Load(),
		Retries:      s.retries.Load(),
		Hedges:       s.hedges.Load(),
		BreakerSkips: s.breakerSkips.Load(),
		PeerHits:     s.peerHits.Load(),
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
	}
}
