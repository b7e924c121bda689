package service

import (
	"net/http"
	"strconv"
	"time"

	"hmem/internal/obs"
)

// latencyBounds are the request-latency histogram's upper bounds in seconds.
// Simulations take seconds-to-minutes, list endpoints microseconds, so the
// buckets span both regimes. Job phases live in the same range, so the phase
// histogram shares them.
var latencyBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300}

// serviceMetrics is every /metrics family the daemon exports, registered
// once at startup on the shared obs.Registry so the page is complete (all
// names, types, and label-less series present at zero) from the very first
// scrape — the property the golden exposition test freezes.
//
// Families fall in two groups: live handles the serving path updates
// directly (requests, latency, job phases, dropped spans), and mirrors of
// counters owned elsewhere (memo caches, job store, journal) that
// handleMetrics copies in just before rendering via Counter.Set.
type serviceMetrics struct {
	requests *obs.CounterVec
	latency  *obs.HistogramVec

	jobPhase     *obs.HistogramVec
	spansDropped *obs.Counter

	resultHits, resultMisses *obs.Counter
	engineHits, engineMisses *obs.Counter
	engines                  *obs.Gauge
	engineEvictions          *obs.Counter
	faultStudies             *obs.Counter

	batchRequests *obs.Counter
	batchItems    *obs.CounterVec
	traceOpens    *obs.Counter
	coalesceHits  *obs.Counter

	queueDepth     *obs.Gauge
	queueOldestAge *obs.Gauge
	jobsByState    *obs.GaugeVec
	jobPanics      *obs.Counter
	jobRetries     *obs.Counter

	journalReplayed   *obs.Gauge
	journalCorrupt    *obs.Gauge
	journalAppendErrs *obs.Counter
	journalSize       *obs.Gauge

	clusterWorkers        *obs.Gauge
	clusterExpiries       *obs.Counter
	clusterShardsPlaced   *obs.Counter
	clusterShardsExecuted *obs.Counter
	clusterRetries        *obs.Counter
	clusterInflight       *obs.Gauge

	admissionInflight  *obs.Gauge
	admissionBudget    *obs.Gauge
	admissionAdmitted  *obs.Counter
	admissionShed      *obs.Counter
	admissionDrainRate *obs.Gauge
	healthState        *obs.Gauge

	breakerState   *obs.GaugeVec
	breakerOpens   *obs.Counter
	breakerCloses  *obs.Counter
	breakerRefused *obs.Counter
	hedges         *obs.Counter
	breakerSkips   *obs.Counter
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{
		requests: reg.CounterVec("hmemd_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: reg.HistogramVec("hmemd_request_duration_seconds",
			"HTTP request latency.", latencyBounds, "route"),
		jobPhase: reg.HistogramVec("hmemd_job_phase_seconds",
			"Wall time of job execution phases, from tracing spans.", latencyBounds, "phase"),
		spansDropped: reg.Counter("hmemd_spans_dropped_total",
			"Tracing spans the exporter failed to accept (dropped, never failing the job)."),
		resultHits: reg.Counter("hmemd_result_cache_hits_total",
			"Evaluate requests served from the result cache (finished or in-flight)."),
		resultMisses: reg.Counter("hmemd_result_cache_misses_total",
			"Evaluate requests that started a simulation."),
		engineHits: reg.Counter("hmemd_engine_memo_hits_total",
			"Engine-level memo hits (profiles, policy runs, fault studies) across all engines."),
		engineMisses: reg.Counter("hmemd_engine_memo_misses_total",
			"Engine-level memo misses across all engines."),
		engines: reg.Gauge("hmemd_engines",
			"Live engines, one per resolved option set; idle ones are retired beyond "+strconv.Itoa(maxEngines)+"."),
		engineEvictions: reg.Counter("hmemd_engine_evictions_total",
			"Idle engines retired to keep the engine set within its bound."),
		faultStudies: reg.Counter("hmemd_fault_studies_total",
			"Tier fault studies run; every engine shares one store, so each distinct study runs once."),
		batchRequests: reg.Counter("hmemd_batch_requests_total",
			"Batch requests accepted by POST /v1/batch (validated and admitted)."),
		batchItems: reg.CounterVec("hmemd_batch_items_total",
			"Batch items streamed, by terminal outcome.", "outcome"),
		traceOpens: reg.Counter("hmemd_trace_opens_total",
			"Workload trace generations across all engines (coalescing-plan materializations included)."),
		coalesceHits: reg.Counter("hmemd_coalesce_hits_total",
			"Simulations served a trace replay from an active coalescing plan instead of regenerating."),
		queueDepth: reg.Gauge("hmemd_job_queue_depth",
			"Jobs waiting in the queue."),
		queueOldestAge: reg.Gauge("hmemd_job_queue_oldest_age_seconds",
			"Age of the oldest still-queued job (0 when the queue is empty)."),
		jobsByState: reg.GaugeVec("hmemd_jobs",
			"Jobs by state.", "state"),
		jobPanics: reg.Counter("hmemd_job_panics_total",
			"Jobs whose experiment driver panicked (isolated to the job; the daemon stayed up)."),
		jobRetries: reg.Counter("hmemd_job_retries_total",
			"Interrupted jobs re-enqueued by journal replay at startup."),
		journalReplayed: reg.Gauge("hmemd_journal_replayed_jobs",
			"Jobs restored from the journal at startup."),
		journalCorrupt: reg.Gauge("hmemd_journal_corrupt_lines",
			"Unparsable journal lines skipped by the startup replay (1 is a normal torn tail; more means lossy recovery)."),
		journalAppendErrs: reg.Counter("hmemd_journal_append_errors_total",
			"Failed journal write attempts (each append retries once before dropping the record)."),
		journalSize: reg.Gauge("hmemd_journal_size_bytes",
			"Current size of the job journal file."),
		// Cluster families are registered on every role (zero when
		// standalone) so the exposition page keeps one stable shape.
		clusterWorkers: reg.Gauge("hmemd_cluster_workers",
			"Live workers in the coordinator's placement ring."),
		clusterExpiries: reg.Counter("hmemd_cluster_worker_expiries_total",
			"Workers dropped from the ring after missing their liveness TTL."),
		clusterShardsPlaced: reg.Counter("hmemd_cluster_shards_placed_total",
			"Shards this coordinator dispatched to workers (successful placements)."),
		clusterShardsExecuted: reg.Counter("hmemd_cluster_shards_executed_total",
			"Shards this worker executed for a coordinator."),
		clusterRetries: reg.Counter("hmemd_cluster_retries_total",
			"Shard dispatches retried on another worker after a transient failure."),
		clusterInflight: reg.Gauge("hmemd_cluster_inflight_shards",
			"Shard executions currently running on this worker."),
		admissionInflight: reg.Gauge("hmemd_admission_inflight_cost",
			"Summed cost of admitted in-flight work, in units of one default-shaped evaluation."),
		admissionBudget: reg.Gauge("hmemd_admission_cost_budget",
			"In-flight cost ceiling; at or above it new costed requests are shed."),
		admissionAdmitted: reg.Counter("hmemd_admission_admitted_total",
			"Requests admitted by the cost-based admission controller."),
		admissionShed: reg.Counter("hmemd_admission_shed_total",
			"Requests shed over budget (429/503 with a drain-rate-derived Retry-After)."),
		admissionDrainRate: reg.Gauge("hmemd_admission_drain_rate",
			"EWMA of completed cost units per second — the denominator of the Retry-After hint."),
		healthState: reg.Gauge("hmemd_health_state",
			"Current health rung: 0 ok, 1 degraded, 2 shedding, 3 draining."),
		// Breaker and hedge families are registered on every role (zero when
		// standalone) for the same stable-shape reason as the cluster ones.
		breakerState: reg.GaugeVec("hmemd_breaker_state",
			"Per-worker circuit breaker state: 0 closed, 1 open, 2 half-open.", "peer"),
		breakerOpens: reg.Counter("hmemd_breaker_opens_total",
			"Circuit breaker closed -> open transitions (worker quarantined)."),
		breakerCloses: reg.Counter("hmemd_breaker_closes_total",
			"Circuit breaker half-open -> closed transitions (worker recovered)."),
		breakerRefused: reg.Counter("hmemd_breaker_refusals_total",
			"Calls refused outright by an open or probe-saturated breaker."),
		hedges: reg.Counter("hmemd_hedges_total",
			"Duplicate shard dispatches launched against stragglers (hedged requests)."),
		breakerSkips: reg.Counter("hmemd_cluster_breaker_skips_total",
			"Placement candidates skipped because their breaker refused the dispatch."),
	}
	// Pre-touch the batch outcome series so the exposition page keeps one
	// stable shape from the very first scrape.
	m.batchItems.With("ok").Add(0)
	m.batchItems.With("error").Add(0)
	return m
}

// observe records one served request.
func (m *serviceMetrics) observe(route string, code int, d time.Duration) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.latency.With(route).Observe(d.Seconds())
}

// jobStates are rendered even at zero so dashboards never see a vanishing
// series.
var jobStates = []string{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled}

// syncMetrics copies externally-owned counters into their registry mirrors.
// Called just before rendering; every source is monotonic or a point-in-time
// gauge, so the copy is safe to repeat. Engine-summed counters include the
// final counts of retired engines, so eviction never lowers them.
func (s *Service) syncMetrics() {
	m := s.met
	rc := s.results.Stats()
	m.resultHits.Set(rc.Hits)
	m.resultMisses.Set(rc.Misses)
	et := s.engineTotals()
	m.engineHits.Set(et.memo.Hits)
	m.engineMisses.Set(et.memo.Misses)
	m.traceOpens.Set(et.trace.Opens)
	m.coalesceHits.Set(et.trace.CoalesceHits)
	m.engines.Set(float64(et.live))
	m.engineEvictions.Set(et.evictions)
	m.faultStudies.Set(s.engines.studies.Runs())
	m.queueDepth.Set(float64(len(s.queue)))
	m.queueOldestAge.Set(s.jobs.oldestQueuedAge().Seconds())
	counts := s.jobs.countByState()
	for _, state := range jobStates {
		m.jobsByState.With(state).Set(float64(counts[state]))
	}
	m.jobPanics.Set(s.jobPanics.Load())
	m.jobRetries.Set(s.jobRetries.Load())
	m.journalReplayed.Set(float64(s.recovery.Restored))
	m.journalCorrupt.Set(float64(s.recovery.CorruptLines))
	m.journalAppendErrs.Set(s.journal.appendErrors())
	m.journalSize.Set(float64(s.journal.size()))
	m.admissionInflight.Set(s.adm.inflight())
	m.admissionBudget.Set(s.adm.budget)
	m.admissionAdmitted.Set(s.adm.admitted.Load())
	m.admissionShed.Set(s.adm.shed.Load())
	m.admissionDrainRate.Set(s.adm.drain.rate())
	m.healthState.Set(float64(s.currentHealth()))
	if cs := s.cluster; cs != nil {
		if cs.reg != nil {
			rs := cs.reg.Stats()
			m.clusterWorkers.Set(float64(rs.Live))
			m.clusterExpiries.Set(rs.Expiries)
		}
		if cs.sched != nil {
			ss := cs.sched.Stats()
			m.clusterShardsPlaced.Set(ss.Placed)
			m.clusterRetries.Set(ss.Retries)
			m.hedges.Set(ss.Hedges)
			m.breakerSkips.Set(ss.BreakerSkips)
		}
		if cs.breakers != nil {
			opens, closes, refused := cs.breakers.Totals()
			m.breakerOpens.Set(opens)
			m.breakerCloses.Set(closes)
			m.breakerRefused.Set(refused)
			for peer, st := range cs.breakers.States() {
				m.breakerState.With(peer).Set(float64(st))
			}
		}
		m.clusterShardsExecuted.Set(cs.executed.Load())
		m.clusterInflight.Set(float64(cs.inflight.Load()))
	}
}

// handleMetrics renders the exposition page from the registry. Rendering is
// deterministic (families by name, series by label values) so scrapes are
// byte-stable for a fixed state.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.syncMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.registry.RenderText(w)
}
