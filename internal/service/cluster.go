package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hmem"
	"hmem/internal/breaker"
	"hmem/internal/cluster"
	"hmem/internal/experiments"
	"hmem/internal/faultsim"
	"hmem/internal/obs"
)

// Roles a hmemd process can serve. Standalone (the default, and the value
// for "") computes everything in-process — byte-identical to the
// pre-cluster daemon. A coordinator decomposes expensive blocks into shards
// and places them on registered workers, falling back to local computation
// whenever no worker can take a shard. A worker executes shards for a
// coordinator; its own synchronous API keeps working.
const (
	RoleStandalone  = "standalone"
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// ClusterConfig tunes the coordinator/worker machinery. The zero value
// gives sane defaults everywhere.
type ClusterConfig struct {
	// TTL is how long a worker stays in the ring without a heartbeat
	// (<=0 = cluster.DefaultTTL).
	TTL time.Duration
	// HealthEvery is the liveness sweep interval (<=0 = 1s).
	HealthEvery time.Duration
	// StealAfter bounds the delay before a straggling shard is hedged onto
	// the next ring candidate (<=0 = 2m); see cluster.Scheduler.StealAfter.
	StealAfter time.Duration
	// RequestTimeout bounds one shard POST (<=0 = 10m).
	RequestTimeout time.Duration
	// Transport, when set, replaces the scheduler's HTTP transport — the
	// chaos seam partition tests cut.
	Transport http.RoundTripper
	// Logf receives placement decisions (nil = silent).
	Logf func(format string, args ...any)
	// Breaker tunes the per-worker circuit breakers guarding placement
	// (zero value = breaker package defaults: 20-outcome window, 50%
	// failure ratio after 5 samples, 5s quarantine, 1 probe, 2 successes
	// to close).
	Breaker breaker.Config
}

// clusterState is the per-role cluster machinery hanging off a Service.
// reg/sched/breakers are non-nil only on coordinators. Shard results live
// in the engine memo of the node that computed them, not here.
type clusterState struct {
	role     string
	reg      *cluster.Registry  // coordinator: worker membership + ring
	sched    *cluster.Scheduler // coordinator: shard placement
	breakers *breaker.Set       // coordinator: per-worker circuit breakers

	executed atomic.Uint64 // shards this node ran for a coordinator
	inflight atomic.Int64  // shard executions currently running

	stop     chan struct{}
	stopOnce sync.Once
	swept    sync.WaitGroup
}

// initCluster builds the role's machinery. Called from New before routes.
func (s *Service) initCluster() error {
	role := s.cfg.Role
	if role == "" {
		role = RoleStandalone
	}
	switch role {
	case RoleStandalone:
		return nil
	case RoleCoordinator, RoleWorker:
	default:
		return fmt.Errorf("service: unknown role %q (want standalone, coordinator, or worker)", s.cfg.Role)
	}
	cs := &clusterState{role: role, stop: make(chan struct{})}
	if role == RoleCoordinator {
		cc := s.cfg.Cluster
		ttl := cc.TTL
		if ttl <= 0 {
			ttl = cluster.DefaultTTL
		}
		stealAfter := cc.StealAfter
		if stealAfter <= 0 {
			stealAfter = 2 * time.Minute
		}
		httpClient := &http.Client{Transport: cc.Transport}
		cs.reg = cluster.NewRegistry(ttl)
		// Per-worker circuit breakers: transitions land on /metrics as the
		// hmemd_breaker_state gauge, in the span stream as breaker.transition
		// spans, and in the operator log.
		breakers := &breaker.Set{
			Config: cc.Breaker,
			OnTransition: func(peer string, from, to breaker.State) {
				s.met.breakerState.With(peer).Set(float64(to))
				tr := obs.NewTracer("breaker", s.spanExp)
				_, sp := obs.Start(obs.WithTracer(context.Background(), tr), "breaker.transition",
					obs.Str("peer", peer), obs.Str("from", from.String()), obs.Str("to", to.String()))
				sp.End()
				s.met.spansDropped.Add(tr.Dropped())
				if cc.Logf != nil {
					cc.Logf("cluster: worker %s breaker %s -> %s", peer, from, to)
				}
			},
		}
		cs.breakers = breakers
		cs.sched = &cluster.Scheduler{
			Registry:       cs.reg,
			Client:         httpClient,
			StealAfter:     stealAfter,
			Breakers:       breakers,
			RequestTimeout: cc.RequestTimeout,
			Logf:           cc.Logf,
		}
		every := cc.HealthEvery
		if every <= 0 {
			every = time.Second
		}
		cs.swept.Add(1)
		go func() {
			defer cs.swept.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-cs.stop:
					return
				case <-t.C:
					cs.reg.Expire()
				}
			}
		}()
	}
	s.cluster = cs
	return nil
}

// stopCluster halts the health sweeper; idempotent.
func (s *Service) stopCluster() {
	if s.cluster == nil {
		return
	}
	s.cluster.stopOnce.Do(func() { close(s.cluster.stop) })
	s.cluster.swept.Wait()
}

// Role reports the configured cluster role.
func (s *Service) Role() string {
	if s.cluster == nil {
		return RoleStandalone
	}
	return s.cluster.role
}

// ClusterLoad reports the in-flight shard executions on this node — the
// load figure a worker self-reports in heartbeats.
func (s *Service) ClusterLoad() int {
	if s.cluster == nil {
		return 0
	}
	return int(s.cluster.inflight.Load())
}

// ClusterWorkers exposes the live worker snapshot (tests and cmd/hmemd).
func (s *Service) ClusterWorkers() []cluster.Worker {
	if s.cluster == nil || s.cluster.reg == nil {
		return nil
	}
	return s.cluster.reg.Snapshot()
}

// --- coordinator-side delegate ---

// clusterDelegate adapts one engine's delegable blocks onto the shard
// scheduler. Each engine gets its own delegate because shards carry the
// engine's resolved options (and their digest) so a worker can rebuild the
// identical engine — or refuse with a digest mismatch.
type clusterDelegate struct {
	s       *Service
	digest  string
	options json.RawMessage
	par     int
}

func newClusterDelegate(s *Service, opts hmem.Options, digest string) (*clusterDelegate, error) {
	par := opts.Parallel
	// Workers schedule with their own parallelism; shipping the
	// coordinator's would only fragment nothing (Parallel never changes
	// results) but zeroing it keeps the wire form canonical.
	opts.Parallel = 0
	raw, err := json.Marshal(opts)
	if err != nil {
		return nil, err
	}
	return &clusterDelegate{s: s, digest: digest, options: raw, par: par}, nil
}

// runShard places one shard, translating "cluster cannot take this" into
// ErrNotDelegated so the runner recomputes locally. Any other error is the
// shard's deterministic outcome (worker-side simulation failure, digest
// mismatch) and propagates.
func (d *clusterDelegate) runShard(ctx context.Context, sh cluster.Shard) ([]byte, error) {
	raw, err := d.s.cluster.sched.Run(ctx, sh)
	if errors.Is(err, cluster.ErrNoWorkers) {
		return nil, experiments.ErrNotDelegated
	}
	return raw, err
}

func (d *clusterDelegate) RunBlock(ctx context.Context, key experiments.BlockKey) (*experiments.BlockPayload, error) {
	sh := cluster.Shard{
		Kind:     cluster.Kind(key.Kind),
		Digest:   d.digest,
		Options:  d.options,
		Workload: key.Workload,
		Policy:   key.Policy,
	}
	raw, err := d.runShard(ctx, sh)
	if err != nil {
		return nil, err
	}
	var p experiments.BlockPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("service: undecodable %s shard payload: %w", sh.Kind, err)
	}
	return &p, nil
}

func (d *clusterDelegate) RunStudyShards(ctx context.Context, tier int, jobs []faultsim.ShardJob) ([]faultsim.ShardTally, error) {
	shards := make([]cluster.Shard, len(jobs))
	for i, j := range jobs {
		shards[i] = cluster.Shard{
			Kind:    cluster.KindFaultShard,
			Digest:  d.digest,
			Options: d.options,
			Tier:    tier,
			K:       j.K,
			Index:   j.Shard,
			Trials:  j.N,
		}
	}
	out := make([]faultsim.ShardTally, len(jobs))
	raws, err := d.s.cluster.sched.RunAll(ctx, d.par, shards)
	if err != nil {
		if errors.Is(err, cluster.ErrNoWorkers) {
			return nil, experiments.ErrNotDelegated
		}
		return nil, err
	}
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("service: undecodable fault-shard payload: %w", err)
		}
	}
	return out, nil
}

// --- handlers ---

// requireCluster 412s endpoints for roles that do not serve them.
func (s *Service) requireCluster(w http.ResponseWriter, roles ...string) *clusterState {
	if s.cluster != nil {
		for _, r := range roles {
			if s.cluster.role == r {
				return s.cluster
			}
		}
	}
	writeError(w, http.StatusPreconditionFailed,
		fmt.Errorf("cluster: this node is %q; endpoint needs role %v", s.Role(), roles))
	return nil
}

// handleClusterRegister is the worker -> coordinator join/heartbeat. The
// same body serves both: a known ID refreshes liveness and load, a new one
// joins the ring.
func (s *Service) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	cs := s.requireCluster(w, RoleCoordinator)
	if cs == nil {
		return
	}
	var req cluster.RegisterRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	isNew, err := cs.reg.Register(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusOK
	if isNew {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]any{"workers": cs.reg.Len(), "ttl_seconds": s.clusterTTL().Seconds()})
}

func (s *Service) clusterTTL() time.Duration {
	if s.cfg.Cluster.TTL > 0 {
		return s.cfg.Cluster.TTL
	}
	return cluster.DefaultTTL
}

// handleClusterDeregister removes a worker immediately (clean drain beats
// waiting out the TTL).
func (s *Service) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	cs := s.requireCluster(w, RoleCoordinator)
	if cs == nil {
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if !s.readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": cs.reg.Deregister(req.ID)})
}

func (s *Service) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	cs := s.requireCluster(w, RoleCoordinator)
	if cs == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": cs.reg.Snapshot()})
}

// handleClusterShard executes one shard — the worker side of the wire.
// Block shards run through the engine's memoized paths, so a repeat or
// duplicate (hedged) dispatch of a block joins or reuses its computation;
// those paths detach from the requester, so one coordinator request's
// cancellation never fails another's.
func (s *Service) handleClusterShard(w http.ResponseWriter, r *http.Request) {
	cs := s.requireCluster(w, RoleWorker)
	if cs == nil {
		return
	}
	if s.refuseIfClosing(w) { // 503: the scheduler retries elsewhere
		return
	}
	var sh cluster.Shard
	if !s.readJSON(w, r, &sh) {
		return
	}
	if err := sh.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cs.inflight.Add(1)
	defer cs.inflight.Add(-1)
	raw, err := s.executeShard(r.Context(), sh)
	if err != nil {
		var mismatch *digestMismatchError
		if errors.As(err, &mismatch) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	cs.executed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// digestMismatchError marks option-set skew between coordinator and worker;
// it maps to 409 so the scheduler fails the shard instead of retrying a
// deterministic disagreement on another node.
type digestMismatchError struct{ want, got string }

func (e *digestMismatchError) Error() string {
	return fmt.Sprintf("cluster: options digest mismatch (coordinator %s, this worker resolves %s); binaries or defaults differ", e.want, e.got)
}

// executeShard rebuilds the engine the shard's options describe, guards the
// digest, and runs the block through the engine's own memoized paths — so a
// worker's cache warms exactly as local traffic would warm it.
func (s *Service) executeShard(ctx context.Context, sh cluster.Shard) ([]byte, error) {
	var opts hmem.Options
	if len(sh.Options) == 0 {
		return nil, errors.New("cluster: shard carries no options")
	}
	if err := json.Unmarshal(sh.Options, &opts); err != nil {
		return nil, fmt.Errorf("cluster: undecodable shard options: %w", err)
	}
	en, err := s.acquireEngineForOptions(opts)
	if err != nil {
		return nil, err
	}
	defer s.releaseEngine(en)
	if en.digest != sh.Digest {
		return nil, &digestMismatchError{want: sh.Digest, got: en.digest}
	}
	e := en.e
	// The registry rides along so engine metrics (hmem_*) land on /metrics
	// on workers too; memo sharing semantics inside the block paths handle
	// cancellation the same way local traffic does.
	runCtx := obs.WithRegistry(ctx, s.registry)
	switch sh.Kind {
	case cluster.KindFaultShard:
		tally, err := e.RunStudyShard(sh.Tier, faultsim.ShardJob{K: sh.K, Shard: sh.Index, N: sh.Trials})
		if err != nil {
			return nil, err
		}
		return json.Marshal(tally)
	default:
		p, err := e.ExecuteBlock(runCtx, experiments.BlockKey{
			Kind:     experiments.BlockKind(sh.Kind),
			Workload: sh.Workload,
			Policy:   sh.Policy,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(p)
	}
}
