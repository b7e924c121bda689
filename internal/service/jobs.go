package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hmem/internal/exec"
	"hmem/internal/obs"
	"hmem/internal/report"
)

// Job states. A job moves queued -> running -> done|failed; cancelled marks
// jobs still queued when a drain deadline expired.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobRequest submits an experiment run: one of the table/figure drivers
// listed by GET /v1/experiments, optionally with option overrides.
type JobRequest struct {
	Experiment string        `json:"experiment"`
	Options    *OptionsPatch `json:"options,omitempty"`
	// TimeoutMS, when positive, bounds the job's execution: a run that
	// exceeds it fails with a deadline error instead of occupying a worker
	// forever.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey makes the submission safe to retry: re-submitting the
	// same key with the same request returns the existing job instead of
	// enqueueing a duplicate; the same key with a different request is a
	// 409 conflict. A key held by a cancelled job — one rejected for queue
	// pressure or draining before it ever ran — is freed, so the retry that
	// rejection invited creates a fresh job rather than being handed the
	// dead one.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// fingerprint canonically identifies the request's content, for detecting
// idempotency-key reuse across different requests.
func (r JobRequest) fingerprint() string {
	opts, _ := json.Marshal(r.Options)
	return fmt.Sprintf("%s|%s|%d", r.Experiment, opts, r.TimeoutMS)
}

// JobStatus is the wire form of a job. Progress is only present while the
// job is running; it is in-memory only (never journaled), so a daemon
// restart resets it along with the run it described.
type JobStatus struct {
	ID         string        `json:"id"`
	Experiment string        `json:"experiment"`
	State      string        `json:"state"`
	Error      string        `json:"error,omitempty"`
	Result     *report.Table `json:"result,omitempty"`
	Progress   *obs.Progress `json:"progress,omitempty"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
}

// JobEvent is one line of the NDJSON progress stream: a state transition, or
// — when Progress is set — a progress heartbeat within the running state
// (heartbeats reuse the seq of the transition they elaborate).
type JobEvent struct {
	Seq      int           `json:"seq"`
	JobID    string        `json:"job_id"`
	State    string        `json:"state"`
	Error    string        `json:"error,omitempty"`
	Progress *obs.Progress `json:"progress,omitempty"`
}

// job is the server-side record: the wire status plus what the store needs
// to run, deduplicate and stream it. All fields are guarded by the store
// mutex; notify is closed-and-replaced on every event so watchers can block
// on it.
type job struct {
	JobStatus
	req         JobRequest
	fingerprint string
	events      []JobEvent
	notify      chan struct{}
}

// newJob builds a queued job for req, created at at.
func newJob(id string, req JobRequest, at time.Time) *job {
	return &job{
		JobStatus:   JobStatus{ID: id, Experiment: req.Experiment, State: JobQueued, CreatedAt: at},
		req:         req,
		fingerprint: req.fingerprint(),
		events:      []JobEvent{{Seq: 1, JobID: id, State: JobQueued}},
		notify:      make(chan struct{}),
	}
}

// wakeLocked wakes every watcher blocked on the job's notify channel.
func (j *job) wakeLocked() {
	old := j.notify
	j.notify = make(chan struct{})
	close(old)
}

func terminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCancelled
}

// jobStore owns every job ever submitted (jobs are few and small — the
// result tables — so process-lifetime retention is fine for an advisory
// daemon; with a journal configured, a restart restores them).
type jobStore struct {
	mu    sync.Mutex
	byID  map[string]*job
	byKey map[string]*job // idempotency key -> job
	order []*job
	next  int
}

func (st *jobStore) init() {
	st.byID = map[string]*job{}
	st.byKey = map[string]*job{}
}

// errKeyConflict marks an idempotency key reused with a different request.
var errKeyConflict = errors.New("idempotency key already used by a different request")

// add creates a queued job, honoring idempotency keys: re-submitting a key
// with the same fingerprint returns the existing job (existed=true); a
// different fingerprint returns errKeyConflict. The check-and-insert is
// atomic under the store lock so concurrent duplicate submissions collapse
// to one job.
func (st *jobStore) add(req JobRequest) (j *job, existed bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if req.IdempotencyKey != "" {
		// A cancelled job never ran and never will; if it kept its key, the
		// retry a queue-full 429 or draining 503 explicitly invites would get
		// a 200 for work that was silently dropped — so cancellation frees
		// the key (in memory here, and across restarts because replayed
		// cancelled jobs hit this same check).
		if prev, ok := st.byKey[req.IdempotencyKey]; ok && prev.State != JobCancelled {
			if prev.fingerprint != req.fingerprint() {
				return nil, false, errKeyConflict
			}
			return prev, true, nil
		}
	}
	j = newJob(fmt.Sprintf("job-%d", st.next+1), req, time.Now().UTC())
	st.insertLocked(j)
	return j, false, nil
}

// insert adds a journal-restored job. Replay runs before the workers and
// handlers start, but takes the lock anyway for consistency.
func (st *jobStore) insert(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.insertLocked(j)
}

// insertLocked indexes j and advances the id counter past it, so new ids
// never collide with restored ones.
func (st *jobStore) insertLocked(j *job) {
	st.byID[j.ID] = j
	if j.req.IdempotencyKey != "" {
		st.byKey[j.req.IdempotencyKey] = j
	}
	st.order = append(st.order, j)
	if n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "job-")); err == nil && n > st.next {
		st.next = n
	}
}

// statusOf snapshots a job under the store lock (workers mutate jobs
// concurrently with handlers reading them).
func (st *jobStore) statusOf(j *job) JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return j.JobStatus
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	return j, ok
}

// list returns a newest-first page of job statuses plus the pre-paging
// total. limit <= 0 means "everything from offset"; an offset past the end
// returns an empty page, not an error.
func (st *jobStore) list(limit, offset int) ([]JobStatus, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := len(st.order)
	if offset < 0 {
		offset = 0
	}
	n := total - offset
	if n < 0 {
		n = 0
	}
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]JobStatus, 0, n)
	// st.order is oldest-first; walk backwards so page 0 is the newest jobs.
	for i := total - 1 - offset; i >= 0 && len(out) < n; i-- {
		out = append(out, st.order[i].JobStatus)
	}
	return out, total
}

// transition is the job state machine, for live jobs and journal replay
// alike: it records a state change made at at, appends the event, and wakes
// watchers. Progress describes the run segment in flight, so every
// transition clears it: a fresh running state starts from nothing, and a
// terminal state's story is its result, not a stale percentage.
func (st *jobStore) transition(j *job, state, errMsg string, result *report.Table, at time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.State, j.Error, j.Progress = state, errMsg, nil
	if result != nil {
		j.Result = result
	}
	switch state {
	case JobRunning:
		j.StartedAt = &at
	case JobDone, JobFailed, JobCancelled:
		j.FinishedAt = &at
	}
	j.events = append(j.events, JobEvent{
		Seq: len(j.events) + 1, JobID: j.ID, State: state, Error: errMsg,
	})
	j.wakeLocked()
}

// setProgress publishes a progress report for a running job and wakes
// watchers. The pointer is replaced, never mutated, so snapshots taken under
// the lock stay immutable afterwards. Reports for a job that already left
// the running state (a straggling worker callback) are dropped.
func (st *jobStore) setProgress(j *job, p obs.Progress) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.State != JobRunning {
		return
	}
	j.Progress = &p
	j.wakeLocked()
}

// snapshotEvents returns the events from seq fromSeq (>= 1) on, the current
// state and progress, plus the channel that closes on the next transition
// or progress report.
func (st *jobStore) snapshotEvents(j *job, fromSeq int) ([]JobEvent, string, *obs.Progress, chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]JobEvent(nil), j.events[fromSeq-1:]...), j.State, j.Progress, j.notify
}

// oldestQueuedAge reports how long the longest-waiting queued job has been
// waiting (0 when nothing is queued) — the /metrics staleness signal.
func (st *jobStore) oldestQueuedAge() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	var oldest time.Time
	for _, j := range st.order {
		if j.State == JobQueued && (oldest.IsZero() || j.CreatedAt.Before(oldest)) {
			oldest = j.CreatedAt
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// countByState tallies jobs per state (for /metrics).
func (st *jobStore) countByState() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[string]int{
		JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0, JobCancelled: 0,
	}
	for _, j := range st.order {
		out[j.State]++
	}
	return out
}

// --- handlers ---

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfClosing(w) {
		return
	}
	// Jobs are the most expensive thing this daemon runs, so they are the
	// first casualty of degraded health: refuse before even reading the
	// body, with a hint derived from how fast jobs are finishing.
	if st := s.adm.healthState(); st != healthOK {
		writeRetryableError(w, http.StatusServiceUnavailable,
			retryAfterSeconds(1, s.adm.jobsDrain.rate()),
			fmt.Errorf("server is %s; job submission is disabled", healthName(st)))
		return
	}
	var req JobRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	en, err := s.acquireEngine(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ids := en.runner.ExperimentIDs()
	s.releaseEngine(en)
	known := false
	for _, id := range ids {
		if id == req.Experiment {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown experiment %q (GET /v1/experiments lists the choices)", req.Experiment))
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, errors.New("timeout_ms must be non-negative"))
		return
	}

	j, existed, err := s.jobs.add(req)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	if existed {
		// Idempotent replay of a submission we already accepted: report the
		// job as it stands, with 200 distinguishing it from a fresh 202.
		writeJSON(w, http.StatusOK, s.jobs.statusOf(j))
		return
	}
	// Journal before acknowledging: a 202 promises the job survives us.
	s.journal.append(journalRecord{
		Op: "submit", JobID: j.ID, At: j.CreatedAt,
		Experiment: req.Experiment, Options: req.Options,
		IdemKey: req.IdempotencyKey, TimeoutMS: req.TimeoutMS,
	})
	// Enqueue under the mutex so a concurrent Shutdown can't close the
	// channel between our closing-check and the send.
	s.queueMu.Lock()
	if s.queueClosed {
		s.queueMu.Unlock()
		s.setJobState(j, JobCancelled, "server is draining", nil)
		writeRetryableError(w, http.StatusServiceUnavailable, 1, errors.New("server is draining"))
		return
	}
	select {
	case s.queue <- j:
		s.queueMu.Unlock()
	default:
		s.queueMu.Unlock()
		s.setJobState(j, JobCancelled, "job queue full", nil)
		// The hint is the measured time for one job to drain from the queue
		// (one slot must free up before a retry can land).
		writeRetryableError(w, http.StatusTooManyRequests,
			retryAfterSeconds(1, s.adm.jobsDrain.rate()),
			fmt.Errorf("job queue full (depth %d); retry later", s.cfg.QueueDepth))
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobs.statusOf(j))
}

// handleListJobs serves a newest-first page of jobs. Without limit/offset
// the full history is returned (backward compatible); job-heavy soak runs
// pass limit so polling the listing stays O(page), not O(jobs ever
// submitted).
func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs, total := s.jobs.list(limit, offset)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "total": total})
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("watch") != "" {
		s.watchJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.statusOf(j))
}

// watchJob streams the job's state transitions — interleaved with progress
// heartbeats while it runs — as NDJSON until the job reaches a terminal
// state or the client disconnects. A heartbeat reuses the seq of the
// transition it elaborates. The final status (with the result table) is one
// plain GET away once the stream ends.
func (s *Service) watchJob(w http.ResponseWriter, r *http.Request, j *job) {
	nextSeq := 1
	var lastProgress *obs.Progress
	writeNDJSON(r.Context(), w, func(buf []byte) ([]byte, <-chan struct{}) {
		events, state, progress, notify := s.jobs.snapshotEvents(j, nextSeq)
		nextSeq += len(events)
		// setProgress replaces the pointer on every report, so pointer
		// identity is exactly "something new since the last round".
		if progress != nil && progress != lastProgress {
			lastProgress = progress
			events = append(events, JobEvent{Seq: nextSeq - 1, JobID: j.ID, State: state, Progress: progress})
		}
		for _, ev := range events {
			line, err := json.Marshal(ev)
			if err != nil {
				return buf, nil
			}
			buf = append(append(buf, line...), '\n')
		}
		if terminal(state) {
			return buf, nil
		}
		return buf, notify
	})
}

// handleJobTrace serves the job's spans still held in the daemon's ring
// buffer (per-job tracers use the job id as trace id, so the snapshot is an
// exact filter). An old job whose spans were overwritten returns an empty
// list, not an error.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	spans := s.ring.Snapshot(j.ID)
	if spans == nil {
		spans = []obs.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace": j.ID, "spans": spans})
}

// setJobState applies a state transition and journals it.
func (s *Service) setJobState(j *job, state, errMsg string, result *report.Table) {
	at := time.Now().UTC()
	s.jobs.transition(j, state, errMsg, result, at)
	s.journal.append(journalRecord{
		Op: "state", JobID: j.ID, At: at,
		State: state, Error: errMsg, Result: result,
	})
}

// panicStackLimit bounds the stack captured into a failed job's error: the
// top frames name the broken invariant, the rest is scheduler noise.
const panicStackLimit = 4096

// runJobs is one worker draining the queue until Shutdown closes it.
func (s *Service) runJobs() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runOneJob(j)
	}
}

// runOneJob executes one job through execute, with the failure domain of
// exactly that job: a panicking experiment driver fails its own request
// with the captured stack and the worker moves on; a configured deadline
// fails a runaway run; both leave the daemon healthy.
func (s *Service) runOneJob(j *job) {
	if s.baseCtx.Err() != nil {
		// Drain deadline already passed: mark the remainder cancelled.
		s.setJobState(j, JobCancelled, "server shut down before the job started", nil)
		return
	}
	s.setJobState(j, JobRunning, "", nil)
	// Each job gets its own tracer (trace id = job id) over the shared
	// exporter, so GET /v1/jobs/{id}/trace can filter the ring precisely.
	// Span ends feed the per-phase histogram; progress callbacks feed the
	// job's live progress field.
	tracer := obs.NewTracer(j.ID, s.spanExp)
	tracer.OnEnd(func(sd obs.SpanData) {
		s.met.jobPhase.With(sd.Name).Observe(float64(sd.DurationNS) / 1e9)
	})
	var table *report.Table
	run, _, err := s.execute(s.baseCtx, []*OptionsPatch{j.req.Options},
		func(en []*engineEntry) float64 { return jobCostFactor * s.costUnit(en[0].runner) },
		// An executing job weighs on the admission budget like the fan-out of
		// evaluations it is: sustained job load pushes the node into
		// degraded (new submissions refused) and, at the budget, into
		// shedding. The job itself was 202-acknowledged, so it is charged,
		// never shed.
		func(cost float64) bool { s.adm.charge(cost); return true },
		func(_ int, en *engineEntry) itemOutcome {
			ctx := s.baseCtx
			if j.req.TimeoutMS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(j.req.TimeoutMS)*time.Millisecond)
				defer cancel()
			}
			ctx = obs.WithTracer(ctx, tracer)
			ctx = obs.WithProgress(ctx, func(p obs.Progress) { s.jobs.setProgress(j, p) })
			call := func() (err error) {
				table, err = en.runner.RunExperiment(ctx, j.Experiment)
				return err
			}
			if s.cfg.TaskWrap != nil {
				call = s.cfg.TaskWrap(call)
			}
			return itemOutcome{err: call()}
		})
	if run == nil {
		s.setJobState(j, JobFailed, err.Error(), nil)
		return
	}
	<-run.settled
	s.adm.jobsDrain.observe(1)
	s.met.spansDropped.Add(tracer.Dropped())
	err = run.outcomes[0].err
	var pe *exec.PanicError
	switch {
	case errors.As(err, &pe):
		s.jobPanics.Add(1)
		stack := pe.Stack
		if len(stack) > panicStackLimit {
			stack = stack[:panicStackLimit] + "\n[stack truncated]"
		}
		s.setJobState(j, JobFailed, fmt.Sprintf("panic: %v\n%s", err, stack), nil)
	case errors.Is(err, context.DeadlineExceeded) && j.req.TimeoutMS > 0 && s.baseCtx.Err() == nil:
		s.setJobState(j, JobFailed, fmt.Sprintf("job deadline (%dms) exceeded", j.req.TimeoutMS), nil)
	case err != nil:
		s.setJobState(j, JobFailed, err.Error(), nil)
	default:
		s.setJobState(j, JobDone, "", table)
	}
}
