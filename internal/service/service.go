// Package service implements hmemd, the placement-advisory HTTP service:
// a JSON API over the hmem facade that a fleet operator (or the paper's
// imagined OS policy daemon) can query for workload × policy evaluations
// without linking the simulator into their own process.
//
// The service is three cooperating pieces:
//
//   - evaluation endpoints (/v1/evaluate, /v1/compare, /v1/batch) that share
//     one executor (see batch.go), answered from each engine's singleflight
//     block memo — two concurrent identical requests perform one
//     simulation;
//   - an async job queue (/v1/jobs) for the long-running experiment drivers
//     (regenerating a paper figure can take minutes), bounded in depth and
//     drained by a fixed worker pool, with NDJSON progress streaming;
//   - observability (/metrics in Prometheus text format, /healthz) plus
//     graceful shutdown that drains in-flight jobs while refusing new work.
//
// Everything is stdlib-only, matching the repository's no-dependency rule.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hmem"
	"hmem/internal/experiments"
	"hmem/internal/obs"
	"hmem/internal/workload"
)

// Config tunes a Service. The zero value is usable: default options, 1 MiB
// body limit, a 16-deep job queue drained by one worker.
type Config struct {
	// Defaults are the engine options used when a request carries no
	// overrides. Requests may override RecordsPerCore etc. per call; each
	// distinct resolved option set gets its own engine (and caches).
	Defaults hmem.Options
	// MaxBodyBytes bounds request bodies (<=0 = 1 MiB).
	MaxBodyBytes int64
	// QueueDepth bounds the async job queue (<=0 = 16). A full queue
	// rejects submissions with 429 rather than blocking the client.
	QueueDepth int
	// JobWorkers is the number of goroutines draining the job queue
	// (0 = 1; negative = none, for tests that inspect queued state).
	JobWorkers int
	// JournalDir, when non-empty, enables the durable job journal: every
	// submission and state transition appends one NDJSON line to
	// <dir>/journal.ndjson, and New replays the file so a killed daemon
	// restarts with its jobs intact — terminal jobs answer GET again,
	// interrupted ones re-enqueue exactly once.
	JournalDir string
	// TaskWrap, when set, wraps each job's execution closure. It is the
	// fault-injection seam chaos tests use to make the experiment driver
	// panic, stall, or fail on demand.
	TaskWrap func(func() error) func() error
	// TraceWrap, when set, wraps every trace stream a simulation consumes,
	// keyed by workload name — the per-item fault-injection seam batch chaos
	// tests use (wrap one workload's streams with a chaos injector and only
	// that batch item fails). Installed on every engine this service
	// creates; results computed under a wrap are cached like any other, so
	// this is for tests and fault drills only.
	TraceWrap func(workloadName string, s hmem.TraceStream) hmem.TraceStream
	// WrapJournalWriter, when set, decorates the journal's append writer
	// (fault-injection seam for disk-failure tests).
	WrapJournalWriter func(io.Writer) io.Writer
	// SpanWriter, when set, additionally streams every finished span as one
	// NDJSON line (hmemd's -trace-log flag). Write failures degrade to the
	// dropped-spans counter; they never fail the traced job.
	SpanWriter io.Writer
	// Role selects clustering: RoleStandalone (default, also ""),
	// RoleCoordinator, or RoleWorker. Standalone behavior is byte-identical
	// to the pre-cluster daemon.
	Role string
	// Cluster tunes the coordinator/worker machinery; ignored when
	// standalone.
	Cluster ClusterConfig
	// Admission tunes the cost-based admission controller (zero value =
	// defaults; see AdmissionConfig).
	Admission AdmissionConfig
}

const (
	defaultMaxBodyBytes = 1 << 20
	defaultQueueDepth   = 16
	// traceBuffer is the capacity of the in-memory span ring behind
	// GET /v1/jobs/{id}/trace. One ring serves every job; spans carry the
	// job id as their trace id, and the newest spans win.
	traceBuffer = 4096
)

// Service is the hmemd HTTP handler plus its job queue and caches. Create
// with New, mount via Handler, stop with Shutdown.
type Service struct {
	cfg Config
	mux *http.ServeMux

	// engines holds one engine per resolved option set in use, plus a
	// bounded set of idle ones, all sharing one fault-study store (see
	// engines.go).
	engines enginePool

	jobs jobStore

	// queue feeds submitted jobs to the worker pool. Guarded by queueMu so
	// Shutdown can close it exactly once while submissions are in flight.
	queueMu     sync.Mutex
	queue       chan *job
	queueClosed bool
	workers     sync.WaitGroup

	// closing flips at Shutdown: new work is refused with 503 while
	// in-flight requests and queued jobs drain.
	closing atomic.Bool
	// baseCtx cancels job execution when a drain deadline expires.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// journal is nil unless Config.JournalDir is set.
	journal  *journal
	recovery RecoveryStats

	// jobPanics counts experiment drivers that panicked inside a worker;
	// jobRetries counts interrupted jobs re-enqueued by journal replay.
	jobPanics  atomic.Uint64
	jobRetries atomic.Uint64

	// met holds every /metrics family and the registry that renders them.
	met *serviceMetrics

	// ring buffers every job's spans (trace id = job id); spanExp is the
	// exporter job tracers write to (the ring, plus Config.SpanWriter).
	ring    *obs.Ring
	spanExp obs.Exporter

	// cluster is nil on standalone nodes; see cluster.go.
	cluster *clusterState

	// adm is the cost-based admission controller; resolvedDefaults are the
	// fully-resolved default engine options its cost model prices against.
	adm              *admission
	resolvedDefaults hmem.Options
}

// New builds a Service and starts its job workers.
func New(cfg Config) (*Service, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	workers := cfg.JobWorkers
	if workers == 0 {
		workers = 1
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg: cfg,
		engines: enginePool{
			byDigest: map[string]*engineEntry{},
			byPatch:  map[OptionsPatch]*engineEntry{},
		},
		baseCtx:    baseCtx,
		cancelBase: cancel,
		met:        newServiceMetrics(obs.NewRegistry()),
		ring:       obs.NewRing(traceBuffer),
	}
	s.spanExp = obs.Exporter(s.ring)
	if cfg.SpanWriter != nil {
		s.spanExp = obs.Multi{s.ring, obs.NewNDJSON(cfg.SpanWriter)}
	}
	// Clustering first: engines created below may need the coordinator's
	// delegate installed from their very first use.
	if err := s.initCluster(); err != nil {
		cancel()
		return nil, err
	}
	// Validate the configured defaults once, up front: a bad default option
	// set should fail service start, not every request. The resolved option
	// set anchors the admission cost model's unit (one default evaluate).
	// The hold is never released, so the default engine is never retired.
	def, err := s.acquireEngine(nil)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("service: invalid default options: %w", err)
	}
	s.resolvedDefaults = def.runner.Options()
	s.adm = newAdmission(cfg.Admission)
	s.jobs.init()

	// Replay the journal (if configured) before anything can submit or run:
	// restored jobs must be visible, and interrupted ones re-enqueued, ahead
	// of any new traffic. A missing/corrupt journal dir fails startup —
	// silently running without the durability the operator asked for would
	// be worse than not starting.
	var requeue []*job
	if cfg.JournalDir != "" {
		// The replay runs under a "startup"-trace span so operators tailing
		// the span log (-trace-log) see recovery cost and outcome like any
		// other phase; attrs carry what compaction and replay found.
		tr := obs.NewTracer("startup", s.spanExp)
		_, sp := obs.Start(obs.WithTracer(context.Background(), tr), "journal.replay")
		jl, recs, recovery, err := openJournal(cfg.JournalDir, cfg.WrapJournalWriter)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal, s.recovery = jl, recovery
		requeue = s.replayJournal(recs)
		sp.SetAttrs(
			obs.Int("restored", int64(s.recovery.Restored)),
			obs.Int("requeued", int64(s.recovery.Requeued)),
			obs.Int("corrupt_lines", int64(s.recovery.CorruptLines)),
			obs.Int("compacted_records", int64(s.recovery.CompactedRecords)))
		sp.End()
		s.met.spansDropped.Add(tr.Dropped())
	}
	// The queue must hold every replayed job even when there are more of
	// them than QueueDepth, or replay would deadlock before workers start.
	depth := cfg.QueueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s.queue = make(chan *job, depth)
	for _, j := range requeue {
		s.queue <- j
	}

	s.mux = s.routes()
	for i := 0; i < workers; i++ {
		s.workers.Add(1)
		go s.runJobs()
	}
	return s, nil
}

// Recovery reports what the startup journal replay restored. Zero when no
// journal is configured (or it was empty).
func (s *Service) Recovery() RecoveryStats { return s.recovery }

// Handler returns the root HTTP handler (all routes, with the metrics
// middleware applied).
func (s *Service) Handler() http.Handler { return s.instrument(s.mux) }

// Shutdown stops accepting new work (evaluations and job submissions get
// 503), waits for queued and in-flight jobs to drain, and — if ctx expires
// first — cancels job contexts so workers stop starting new simulations.
// It is safe to call once; the HTTP server's own Shutdown handles in-flight
// synchronous requests.
func (s *Service) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.queueMu.Lock()
	if !s.queueClosed {
		s.queueClosed = true
		close(s.queue)
	}
	s.queueMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelBase()
		s.journal.close()
		return nil
	case <-ctx.Done():
		// Deadline passed: cancel the job context so in-flight drivers stop
		// launching new simulations, then wait for the workers to notice.
		s.cancelBase()
		<-done
		s.journal.close()
		return ctx.Err()
	}
}

// routes wires the API. Go 1.22 pattern routing gives us method dispatch
// and path values without a router dependency.
func (s *Service) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("POST /v1/cluster/register", s.handleClusterRegister)
	mux.HandleFunc("POST /v1/cluster/deregister", s.handleClusterDeregister)
	mux.HandleFunc("GET /v1/cluster/workers", s.handleClusterWorkers)
	mux.HandleFunc("POST /v1/cluster/shard", s.handleClusterShard)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// --- wire types ---

// EvaluateRequest asks for one workload × policy evaluation.
type EvaluateRequest struct {
	Workload string          `json:"workload"`
	Policy   hmem.PolicyName `json:"policy"`
	Options  *OptionsPatch   `json:"options,omitempty"`
}

// CompareRequest asks for one workload under several policies.
type CompareRequest struct {
	Workload string            `json:"workload"`
	Policies []hmem.PolicyName `json:"policies"`
	Options  *OptionsPatch     `json:"options,omitempty"`
}

// OptionsPatch is the subset of engine options a request may override.
// Omitted (zero) fields keep the server's defaults. Parallel is
// deliberately absent: it never changes results, only scheduling, and
// letting clients set it would fragment the engine set.
type OptionsPatch struct {
	ScaleDiv       int    `json:"scale_div,omitempty"`
	RecordsPerCore int    `json:"records_per_core,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	FaultTrials    int    `json:"fault_trials,omitempty"`
	// Topology selects the memory topology by name; GET /v1/topologies
	// lists the choices. Empty keeps the server default (hbm-ddr).
	Topology string `json:"topology,omitempty"`
}

func (p *OptionsPatch) apply(o hmem.Options) hmem.Options {
	if p == nil {
		return o
	}
	if p.ScaleDiv > 0 {
		o.ScaleDiv = p.ScaleDiv
	}
	if p.RecordsPerCore > 0 {
		o.RecordsPerCore = p.RecordsPerCore
	}
	if p.Seed != 0 {
		o.Seed = p.Seed
	}
	if p.FaultTrials > 0 {
		o.FaultTrials = p.FaultTrials
	}
	if p.Topology != "" {
		o.Topology = p.Topology
	}
	return o
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// --- pricing (engines live in engines.go) ---

// costUnit prices one evaluation on engine e in units of a default-shaped
// evaluation: simulation time scales with the trace length (records per
// core) and the fault-study trial count, weighted evenly. The study half is
// free when the engine's studies are already in the shared store.
func (s *Service) costUnit(runner *experiments.Runner) float64 {
	opts := runner.Options()
	u := 0.0
	if d := s.resolvedDefaults.RecordsPerCore; d > 0 {
		u += 0.5 * float64(opts.RecordsPerCore) / float64(d)
	} else {
		u += 0.5
	}
	if runner.StudiesKnown() {
		return u
	}
	if d := s.resolvedDefaults.FaultTrials; d > 0 {
		u += 0.5 * float64(opts.FaultTrials) / float64(d)
	} else {
		u += 0.5
	}
	return u
}

// --- validation ---

// validateTarget 400s unknown workloads/policies before any simulation (or
// cache entry) happens, with the valid choices in the message.
func validateTarget(workloadName string, policies ...hmem.PolicyName) error {
	if _, err := workload.SpecByName(workloadName); err != nil {
		return fmt.Errorf("unknown workload %q (GET /v1/workloads lists the choices)", workloadName)
	}
	for _, p := range policies {
		if !experiments.KnownPolicy(p) {
			return fmt.Errorf("unknown policy %q (GET /v1/policies lists the choices)", p)
		}
	}
	return nil
}

// --- handlers ---

func (s *Service) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads":  hmem.Workloads(),
		"benchmarks": hmem.Benchmarks(),
	})
}

func (s *Service) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"policies": hmem.Policies()})
}

// handleTopologies lists the selectable memory topologies (built-in plus any
// registered from files at startup), with tier summaries at the server's
// default capacity scale.
func (s *Service) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	topos, err := hmem.DescribeTopologies(s.cfg.Defaults.ScaleDiv)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"topologies": topos})
}

func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	en, err := s.acquireEngine(nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer s.releaseEngine(en)
	writeJSON(w, http.StatusOK, map[string]any{"experiments": en.runner.ExperimentIDs()})
}

func (s *Service) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfClosing(w) {
		return
	}
	var req EvaluateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if err := validateTarget(req.Workload, req.Policy); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveOne(w, r, BatchItem{Workload: req.Workload, Policy: req.Policy, Options: req.Options}, "", "")
}

func (s *Service) handleCompare(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfClosing(w) {
		return
	}
	var req CompareRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Policies) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("policies must be non-empty"))
		return
	}
	if err := validateTarget(req.Workload, req.Policies...); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveOne(w, r, BatchItem{Workload: req.Workload, Policies: req.Policies, Options: req.Options},
		`{"results":`, "}")
}

// serveOne answers /v1/evaluate and /v1/compare as a one-item run of the
// evaluation executor: the item's payload, between prefix and suffix, is the
// response body — the bytes writeJSON would produce for the decoded result.
func (s *Service) serveOne(w http.ResponseWriter, r *http.Request, it BatchItem, prefix, suffix string) {
	ctx := r.Context()
	run, ok := s.evaluate(ctx, w, []BatchItem{it}, func(_ int, err error) error { return err })
	if !ok {
		return
	}
	select {
	case <-run.settled:
	case <-ctx.Done():
		writeEvaluationError(w, ctx.Err())
		return
	}
	out := run.outcomes[0]
	if out.err != nil {
		writeEvaluationError(w, out.err)
		return
	}
	body := make([]byte, 0, len(prefix)+len(out.payload)+len(suffix)+1)
	body = append(append(append(append(body, prefix...), out.payload...), suffix...), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleHealthz reports the service's rung on the ok → degraded → shedding
// ladder (draining, during shutdown, outranks them all). Degraded still
// answers 200 — the node serves cheap work and sync evaluations, it has only
// closed the expensive job endpoint; shedding and draining answer 503 so
// load balancers rotate traffic away.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.currentHealth()
	code := http.StatusOK
	if st == healthShedding || st == healthDraining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": healthName(st)})
}

// currentHealth folds shutdown state over the admission controller's ladder.
func (s *Service) currentHealth() int {
	if s.closing.Load() {
		return healthDraining
	}
	return s.adm.healthState()
}

// refuseIfClosing 503s work submitted after Shutdown began.
func (s *Service) refuseIfClosing(w http.ResponseWriter) bool {
	if s.closing.Load() {
		writeRetryableError(w, http.StatusServiceUnavailable, 1, errors.New("server is draining"))
		return true
	}
	return false
}

// --- plumbing ---

// readJSON decodes a bounded request body, rejecting trailing garbage and
// unknown fields (a typoed option name should 400, not silently default).
func (s *Service) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %v", err))
		return false
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, errors.New("invalid request body: trailing data"))
		return false
	}
	return true
}

// writeEvaluationError maps engine failures: caller cancellation is 499-ish
// (client gone, nothing to write), everything else is a 500.
func writeEvaluationError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The client went away; any status we write is unread. Use 499 in
		// the nginx tradition so metrics distinguish it from server faults.
		w.WriteHeader(499)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeRetryableError is writeError plus a Retry-After hint in seconds, for
// transient refusals (cost shed, queue pressure, draining) the client should
// back off from and retry rather than surface. Callers derive the hint from
// the measured drain rate via retryAfterSeconds; 1 is the honest floor.
func writeRetryableError(w http.ResponseWriter, code, retryAfterSecs int, err error) {
	if retryAfterSecs < 1 {
		retryAfterSecs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	writeError(w, code, err)
}

// --- metrics middleware ---

// instrument wraps the mux with request counting and latency observation.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.met.observe(routeLabel(r), rec.code, time.Since(start))
	})
}

// routeLabel collapses paths with IDs so metrics stay low-cardinality.
func routeLabel(r *http.Request) string {
	path := r.URL.Path
	if strings.HasPrefix(path, "/v1/jobs/") {
		if strings.HasSuffix(path, "/trace") {
			path = "/v1/jobs/{id}/trace"
		} else {
			path = "/v1/jobs/{id}"
		}
	}
	return r.Method + " " + path
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so NDJSON streaming works through
// the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
