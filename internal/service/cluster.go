package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"hmem"
	"hmem/internal/breaker"
	"hmem/internal/cluster"
	"hmem/internal/exec"
	"hmem/internal/experiments"
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
	// TTL is how long a worker stays placeable without a heartbeat
	// (<=0 = cluster.DefaultTTL); the registry checks it on every read.
	TTL time.Duration
	// StealAfter bounds the delay before a straggling shard is hedged onto
	// the next placement candidate (<=0 = 2m); see cluster.Scheduler.StealAfter.
	StealAfter time.Duration
	// RequestTimeout bounds one shard POST (<=0 = 10m).
	RequestTimeout time.Duration
	// Transport, when set, replaces the scheduler's HTTP transport — the
	// chaos seam partition tests cut.
	Transport http.RoundTripper
	// Logf receives placement decisions (nil = silent).
	Logf func(format string, args ...any)
}

// clusterState is the per-role cluster machinery hanging off a Service.
// reg/sched/breakers are non-nil only on coordinators. Shard results live
// in the engine memo of the node that computed them, not here.
type clusterState struct {
	role     string
	reg      *cluster.Registry  // coordinator: worker membership + placement
	sched    *cluster.Scheduler // coordinator: shard placement
	breakers *breaker.Set       // coordinator: per-worker circuit breakers

	executed atomic.Uint64 // shards this node ran for a coordinator
	inflight atomic.Int64  // shard executions currently running
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
	cs := &clusterState{role: role}
	if role == RoleCoordinator {
		cc := s.cfg.Cluster
		stealAfter := cc.StealAfter
		if stealAfter <= 0 {
			stealAfter = 2 * time.Minute
		}
		httpClient := &http.Client{Transport: cc.Transport}
		cs.reg = cluster.NewRegistry(cc.TTL)
		// Per-worker circuit breakers: transitions land in the span stream as
		// breaker.transition spans and in the operator log; syncMetrics
		// mirrors every breaker's state onto /metrics (hmemd_breaker_state).
		breakers := &breaker.Set{
			OnTransition: func(peer string, from, to breaker.State) {
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
	}
	s.cluster = cs
	return nil
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

// clusterDelegate adapts the blocks one engine offers onto the shard
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

// Run wraps each block in the engine's shard envelope and places the
// shards, translating "cluster cannot take this" into ErrNotDelegated so
// the runner recomputes locally. Any other error is a shard's deterministic
// outcome (worker-side simulation failure, digest mismatch) and propagates.
func (d *clusterDelegate) Run(ctx context.Context, blocks []experiments.Block) ([]json.RawMessage, error) {
	shards := make([]cluster.Shard, len(blocks))
	for i, b := range blocks {
		work, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		shards[i] = cluster.Shard{Digest: d.digest, Options: d.options, Work: work}
	}
	payloads, err := d.s.cluster.sched.RunAll(ctx, d.par, shards)
	if errors.Is(err, cluster.ErrNoWorkers) {
		return nil, experiments.ErrNotDelegated
	}
	return payloads, err
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
// (or one already expired) joins placement.
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
	writeJSON(w, code, map[string]any{"workers": cs.reg.Len(), "ttl_seconds": cs.reg.TTL().Seconds()})
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
	var b experiments.Block
	if err := errors.Join(sh.Validate(), json.Unmarshal(sh.Work, &b), b.Validate()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cs.inflight.Add(1)
	defer cs.inflight.Add(-1)
	raw, err := s.executeShard(r.Context(), sh, b)
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
// digest, and executes the block through the engine's own memoized paths —
// so a worker's cache warms exactly as local traffic would warm it.
func (s *Service) executeShard(ctx context.Context, sh cluster.Shard, b experiments.Block) (json.RawMessage, error) {
	var opts hmem.Options
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
	// Memo sharing semantics inside the block paths handle cancellation
	// the same way local traffic does. A panicking block becomes a
	// *PanicError and so a 500: the coordinator propagates that
	// deterministic failure once instead of retrying it on every worker.
	var raw json.RawMessage
	err = exec.Protect(func() (err error) {
		raw, err = en.runner.Execute(ctx, b)
		return err
	})
	return raw, err
}
