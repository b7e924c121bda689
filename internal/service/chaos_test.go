package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmem"
	"hmem/internal/chaos"
	"hmem/internal/trace"
)

// metricsPage fetches /metrics as text.
func metricsPage(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// waitTerminal polls a job until it leaves the queue/run states.
func waitTerminal(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// TestJobPanicIsolation is the first acceptance criterion: an injected panic
// in one job's experiment driver fails exactly that job — with the captured
// stack in its error — while the daemon keeps serving: the next job runs to
// completion, /healthz stays 200, and the panic is counted on /metrics.
func TestJobPanicIsolation(t *testing.T) {
	inj, err := chaos.New(chaos.Plan{Tasks: []chaos.TaskFault{{AtCall: 0, Mode: chaos.ModePanic}}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.TaskWrap = inj.Task
	_, c := newTestServer(t, cfg)
	ctx := context.Background()

	first, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}

	st := waitTerminal(t, c, first.ID)
	if st.State != JobFailed {
		t.Fatalf("panicked job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic:") || !strings.Contains(st.Error, "injected panic") {
		t.Fatalf("panicked job error = %q, want panic message", st.Error)
	}
	if !strings.Contains(st.Error, "runOneJob") && !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("panicked job error carries no stack:\n%s", st.Error)
	}

	st2 := waitTerminal(t, c, second.ID)
	if st2.State != JobDone {
		t.Fatalf("follow-up job state = %s (%s), want done", st2.State, st2.Error)
	}

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz after panic: %v", err)
	}
	page := metricsPage(t, c.BaseURL)
	if !strings.Contains(page, "hmemd_job_panics_total 1") {
		t.Fatalf("metrics missing panic count:\n%s", page)
	}
	if got := inj.Stats().Tasks; got != 1 {
		t.Fatalf("injected task faults = %d, want 1", got)
	}
}

// panicStream is a trace stream whose Next panics: a simulation bug deep
// inside a memoized run.
type panicStream struct{}

func (panicStream) Next() (trace.Record, error) { panic("stream exploded") }

// TestJobSimulationPanicNamesItsFrame: a simulation that panics inside a
// figure driver — under the job's Settle, the driver's Map and the engine's
// Memo — fails its job with the panic wrapped once and the panicking
// goroutine's own stack, which names the frame that panicked.
func TestJobSimulationPanicNamesItsFrame(t *testing.T) {
	cfg := tinyConfig()
	cfg.Defaults.Workloads = []string{"astar"}
	cfg.TraceWrap = func(string, hmem.TraceStream) hmem.TraceStream { return panicStream{} }
	_, c := newTestServer(t, cfg)

	st, err := c.SubmitJob(context.Background(), JobRequest{Experiment: "figure5"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != JobFailed {
		t.Fatalf("job state = %s, want failed", final.State)
	}
	if n := strings.Count(final.Error, "exec: panic in task"); n != 1 || !strings.Contains(final.Error, "stream exploded") {
		t.Fatalf("job error wraps the panic %d times, want once:\n%s", n, final.Error)
	}
	if !strings.Contains(final.Error, "service.panicStream.Next(") {
		t.Fatalf("job error's stack does not name the panicking frame:\n%s", final.Error)
	}
	if page := metricsPage(t, c.BaseURL); !strings.Contains(page, "hmemd_job_panics_total 1") {
		t.Fatalf("metrics missing panic count:\n%s", page)
	}
}

// TestJobDeadline: a per-job timeout fails a runaway run with a deadline
// error instead of occupying the worker forever.
func TestJobDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := tinyConfig()
	cfg.Defaults.Workloads = []string{"astar"}
	_, c := newTestServer(t, cfg)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, JobRequest{Experiment: "figure5", TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != JobFailed {
		t.Fatalf("job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline (1ms) exceeded") {
		t.Fatalf("job error = %q, want deadline message", final.Error)
	}
	// The worker survives: a fresh, untimed job still completes.
	st2, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, c, st2.ID); got.State != JobDone {
		t.Fatalf("follow-up job state = %s (%s), want done", got.State, got.Error)
	}
}

// TestSubmitIdempotencyKey: re-submitting the same key with the same body
// returns the existing job (200, same id); the same key with a different
// body is a 409.
func TestSubmitIdempotencyKey(t *testing.T) {
	cfg := tinyConfig()
	cfg.JobWorkers = -1 // keep jobs queued so states are deterministic
	_, c := newTestServer(t, cfg)

	submit := func(body string) (int, JobStatus) {
		resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}

	req := `{"experiment":"table1","idempotency_key":"k1"}`
	code, first := submit(req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	code, replay := submit(req)
	if code != http.StatusOK {
		t.Fatalf("replayed submit = %d, want 200", code)
	}
	if replay.ID != first.ID {
		t.Fatalf("replayed submit made a new job: %s vs %s", replay.ID, first.ID)
	}
	code, _ = submit(`{"experiment":"figure5","idempotency_key":"k1"}`)
	if code != http.StatusConflict {
		t.Fatalf("conflicting submit = %d, want 409", code)
	}
	// A keyless duplicate still enqueues separately.
	code, dup := submit(`{"experiment":"table1"}`)
	if code != http.StatusAccepted || dup.ID == first.ID {
		t.Fatalf("keyless submit = %d id %s", code, dup.ID)
	}
}

// TestKeyedSubmitBounceFreesKey: a keyed submission bounced for queue
// pressure is cancelled before it ever runs, and that cancellation frees the
// key. The retry the 429 invites must never be answered 200 with the dead
// job — it either bounces again or, once there is room, enqueues a fresh
// job. The same holds across a restart that replays the cancelled job from
// the journal.
func TestKeyedSubmitBounceFreesKey(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := tinyConfig()
	cfg.JournalDir = dir
	cfg.QueueDepth = 1
	cfg.JobWorkers = -1 // keep the queue full by hand
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	c := &Client{BaseURL: ts.URL}

	if _, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1"}); err != nil {
		t.Fatal(err) // fills the queue
	}
	keyed := JobRequest{Experiment: "table1", IdempotencyKey: "bounced"}
	_, err = c.SubmitJob(ctx, keyed)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("keyed submit into a full queue = %v, want 429", err)
	}
	// Retry while still full: another 429, never a 200 with the cancelled job.
	_, err = c.SubmitJob(ctx, keyed)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("retry while full = %v, want 429 (a 200 would hand back a job that will never run)", err)
	}
	// Make room; the same key must now enqueue a fresh, live job.
	<-svc.queue
	st, err := c.SubmitJob(ctx, keyed)
	if err != nil {
		t.Fatalf("retry with room = %v, want accepted", err)
	}
	if st.State != JobQueued {
		t.Fatalf("retried job state = %s, want queued", st.State)
	}
	ts.Close()
	shutdownCtx, cancel := context.WithTimeout(ctx, time.Minute)
	_ = svc.Shutdown(shutdownCtx)
	cancel()

	// Restart: the journal holds cancelled jobs under other keys from the
	// bounces above. A key that died with a cancelled job must stay free
	// after replay too.
	dir2 := t.TempDir()
	cfg2 := tinyConfig()
	cfg2.JournalDir = dir2
	cfg2.QueueDepth = 1
	cfg2.JobWorkers = -1
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	c2 := &Client{BaseURL: ts2.URL}
	if _, err := c2.SubmitJob(ctx, JobRequest{Experiment: "table1"}); err != nil {
		t.Fatal(err)
	}
	_, err = c2.SubmitJob(ctx, keyed)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("keyed submit = %v, want 429", err)
	}
	ts2.Close()
	shutdownCtx2, cancel2 := context.WithTimeout(ctx, time.Minute)
	_ = svc2.Shutdown(shutdownCtx2)
	cancel2()

	cfg3 := tinyConfig()
	cfg3.JournalDir = dir2
	svc3, err := New(cfg3) // with a worker: the requeued filler drains
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(svc3.Handler())
	defer func() {
		ts3.Close()
		shutdownCtx3, cancel3 := context.WithTimeout(ctx, time.Minute)
		defer cancel3()
		_ = svc3.Shutdown(shutdownCtx3)
	}()
	c3 := &Client{BaseURL: ts3.URL}
	st3, err := c3.SubmitJob(ctx, keyed)
	if err != nil {
		t.Fatalf("keyed submit after restart = %v, want accepted (key burned by replayed cancelled job?)", err)
	}
	if st3.State == JobCancelled {
		t.Fatal("keyed submit after restart returned the replayed cancelled job")
	}
	if got := waitTerminal(t, c3, st3.ID); got.State != JobDone {
		t.Fatalf("retried job after restart = %s (%s), want done", got.State, got.Error)
	}
}

// readJournal parses every intact line of a journal directory's log.
func readJournal(t *testing.T, dir string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestJournalSurvivesRestart is the second acceptance criterion: jobs
// accepted before a crash are neither lost nor double-run. Phase 1 accepts
// jobs with no workers (the crash strikes before any runs); phase 2 restarts
// on the same journal and must run each exactly once; phase 3 restarts again
// and must restore the terminal results without re-running anything.
func TestJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Phase 1: accept 3 jobs, then die with all of them still queued.
	cfg := tinyConfig()
	cfg.JournalDir = dir
	cfg.JobWorkers = -1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	c := &Client{BaseURL: ts.URL}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1", IdempotencyKey: fmt.Sprintf("key-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ts.Close()
	shutdownCtx, cancel := context.WithTimeout(ctx, time.Minute)
	_ = svc.Shutdown(shutdownCtx)
	cancel()

	// Phase 2: restart with a worker; every job must run exactly once.
	cfg2 := tinyConfig()
	cfg2.JournalDir = dir
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rec := svc2.Recovery()
	if rec.Restored != 3 || rec.Requeued != 3 || rec.Terminal != 0 || rec.PoisonFailed != 0 {
		t.Fatalf("phase-2 recovery = %+v", rec)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	c2 := &Client{BaseURL: ts2.URL}
	for _, id := range ids {
		if st := waitTerminal(t, c2, id); st.State != JobDone {
			t.Fatalf("job %s after restart = %s (%s), want done", id, st.State, st.Error)
		}
	}
	page := metricsPage(t, c2.BaseURL)
	if !strings.Contains(page, "hmemd_journal_replayed_jobs 3") {
		t.Fatalf("metrics missing replay count:\n%s", page)
	}
	// An idempotent resubmission after the restart still maps to the old job.
	st, err := c2.SubmitJob(ctx, JobRequest{Experiment: "table1", IdempotencyKey: "key-0"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != ids[0] {
		t.Fatalf("idempotency key lost across restart: %s vs %s", st.ID, ids[0])
	}
	ts2.Close()
	shutdownCtx2, cancel2 := context.WithTimeout(ctx, time.Minute)
	_ = svc2.Shutdown(shutdownCtx2)
	cancel2()

	// The journal must show each job started exactly once.
	runs := map[string]int{}
	dones := map[string]int{}
	for _, r := range readJournal(t, dir) {
		if r.Op == "state" && r.State == JobRunning {
			runs[r.JobID]++
		}
		if r.Op == "state" && r.State == JobDone {
			dones[r.JobID]++
		}
	}
	for _, id := range ids {
		if runs[id] != 1 || dones[id] != 1 {
			t.Fatalf("job %s: %d runs, %d dones (want exactly 1 each)", id, runs[id], dones[id])
		}
	}

	// Phase 3: restart once more; the terminal jobs restore — results and
	// all — and nothing is re-enqueued.
	cfg3 := tinyConfig()
	cfg3.JournalDir = dir
	svc3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	rec3 := svc3.Recovery()
	if rec3.Restored != 3 || rec3.Terminal != 3 || rec3.Requeued != 0 {
		t.Fatalf("phase-3 recovery = %+v", rec3)
	}
	ts3 := httptest.NewServer(svc3.Handler())
	c3 := &Client{BaseURL: ts3.URL}
	for _, id := range ids {
		st, err := c3.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone || st.Result == nil {
			t.Fatalf("job %s after second restart = %s (result %v)", id, st.State, st.Result != nil)
		}
	}
	ts3.Close()
	shutdownCtx3, cancel3 := context.WithTimeout(ctx, time.Minute)
	_ = svc3.Shutdown(shutdownCtx3)
	cancel3()
}

// TestJournalReplayRequeuesInterruptedAndPoisonsRepeatOffenders: a job that
// was mid-run at the crash re-enqueues (counted as a retry); a job that was
// running at maxJobAttempts consecutive crashes is failed as poison instead
// of being re-enqueued a fourth time.
func TestJournalReplayRequeuesInterruptedAndPoisons(t *testing.T) {
	dir := t.TempDir()
	lines := []journalRecord{
		{Seq: 1, Op: "submit", JobID: "job-1", Experiment: "table1"},
		{Seq: 2, Op: "state", JobID: "job-1", State: JobRunning},
		{Seq: 3, Op: "submit", JobID: "job-2", Experiment: "table1"},
		{Seq: 4, Op: "state", JobID: "job-2", State: JobRunning},
		{Seq: 5, Op: "state", JobID: "job-2", State: JobQueued},
		{Seq: 6, Op: "state", JobID: "job-2", State: JobRunning},
		{Seq: 7, Op: "state", JobID: "job-2", State: JobQueued},
		{Seq: 8, Op: "state", JobID: "job-2", State: JobRunning},
	}
	var buf strings.Builder
	for _, rec := range lines {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	// A torn trailing line — the crash struck mid-append — must be skipped.
	buf.WriteString(`{"seq":9,"op":"state","job_id":"job-1","sta`)
	if err := os.WriteFile(filepath.Join(dir, journalFileName), []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := tinyConfig()
	cfg.JournalDir = dir
	cfg.JobWorkers = -1 // inspect states without running anything
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	rec := svc.Recovery()
	if rec.Restored != 2 || rec.Requeued != 1 || rec.PoisonFailed != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	j1, ok := svc.jobs.get("job-1")
	if !ok || svc.jobs.statusOf(j1).State != JobQueued {
		t.Fatalf("interrupted job not requeued: %+v", svc.jobs.statusOf(j1))
	}
	j2, ok := svc.jobs.get("job-2")
	if !ok {
		t.Fatal("poison job missing")
	}
	st2 := svc.jobs.statusOf(j2)
	if st2.State != JobFailed || !strings.Contains(st2.Error, "interrupted 3 times") {
		t.Fatalf("poison job = %s (%s)", st2.State, st2.Error)
	}
	// New submissions never collide with replayed ids.
	j3, _, err := svc.jobs.add(JobRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == "job-1" || j3.ID == "job-2" {
		t.Fatalf("id collision: %s", j3.ID)
	}
	if svc.jobRetries.Load() != 1 {
		t.Fatalf("jobRetries = %d, want 1", svc.jobRetries.Load())
	}
}

// TestJournalCompactsOnStartup: the journal does not grow without bound —
// a restart rewrites it down to one submit plus one current-state line per
// job, preserving results and the accumulated attempt count poison
// detection needs.
func TestJournalCompactsOnStartup(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Run one job to completion: the journal holds its full lifecycle
	// (submit, queued→running→done) before any compaction.
	cfg := tinyConfig()
	cfg.JournalDir = dir
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	c := &Client{BaseURL: ts.URL}
	st, err := c.SubmitJob(ctx, JobRequest{Experiment: "table1", IdempotencyKey: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, c, st.ID); got.State != JobDone {
		t.Fatalf("job = %s (%s), want done", got.State, got.Error)
	}
	ts.Close()
	shutdownCtx, cancel := context.WithTimeout(ctx, time.Minute)
	_ = svc.Shutdown(shutdownCtx)
	cancel()
	if before := readJournal(t, dir); len(before) <= 2 {
		t.Fatalf("pre-compaction journal has %d records, expected a full lifecycle", len(before))
	}

	// Restart: the file shrinks to submit + done, the result and the
	// idempotency key survive, and the one completed run is carried in the
	// submit record's attempt count.
	cfg2 := tinyConfig()
	cfg2.JournalDir = dir
	cfg2.JobWorkers = -1
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		shutdownCtx2, cancel2 := context.WithTimeout(ctx, time.Minute)
		defer cancel2()
		_ = svc2.Shutdown(shutdownCtx2)
	}()
	rec := svc2.Recovery()
	if rec.Restored != 1 || rec.Terminal != 1 || rec.CompactedRecords == 0 {
		t.Fatalf("recovery = %+v, want 1 terminal job and compacted records", rec)
	}
	after := readJournal(t, dir)
	if len(after) != 2 {
		t.Fatalf("compacted journal has %d records, want 2 (submit + done):\n%+v", len(after), after)
	}
	if after[0].Op != "submit" || after[0].IdemKey != "keep" || after[0].Attempts != 1 {
		t.Fatalf("compacted submit = %+v, want idempotency key and 1 attempt", after[0])
	}
	if after[1].Op != "state" || after[1].State != JobDone || after[1].Result == nil {
		t.Fatalf("compacted state = %+v, want done with result", after[1])
	}
	j, ok := svc2.jobs.get(st.ID)
	if !ok {
		t.Fatal("job missing after compacting restart")
	}
	if got := svc2.jobs.statusOf(j); got.State != JobDone || got.Result == nil {
		t.Fatalf("restored job = %s (result %v), want done with result", got.State, got.Result != nil)
	}
}

// TestJournalRetriesFailedAppendAndSeversTornWrites: a dropped terminal
// record does not just lose a result — it re-executes the job on restart —
// so a failed write retries once, and the retry after a short write leads
// with a newline so the torn fragment cannot swallow the re-written record.
func TestJournalRetriesFailedAppendAndSeversTornWrites(t *testing.T) {
	dir := t.TempDir()
	inj, err := chaos.New(chaos.Plan{Write: []chaos.WriteFault{
		{AtWrite: 0, Mode: chaos.ModeError}, // submit's first attempt fails outright
		{AtWrite: 2, Mode: chaos.ModeShort}, // done's first attempt tears mid-line
	}})
	if err != nil {
		t.Fatal(err)
	}
	jl, _, _, err := openJournal(dir, inj.Writer)
	if err != nil {
		t.Fatal(err)
	}
	jl.append(journalRecord{Op: "submit", JobID: "job-1", Experiment: "table1"})
	jl.append(journalRecord{Op: "state", JobID: "job-1", State: JobDone})
	jl.close()
	if got := jl.appendErrors(); got != 2 {
		t.Fatalf("append errors = %d, want 2 (one per failed attempt)", got)
	}

	jl2, recs, stats, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl2.close()
	if stats.CorruptLines != 1 {
		t.Fatalf("corrupt lines = %d, want exactly the one torn fragment", stats.CorruptLines)
	}
	if len(recs) != 2 || recs[0].Op != "submit" || recs[1].State != JobDone {
		t.Fatalf("replayed records = %+v, want the retried submit and done", recs)
	}
}

// TestJournalAppendFailureDegradesGracefully: a failing journal disk loses
// durability, not the daemon — jobs still run, and the drops are counted.
func TestJournalAppendFailureDegradesGracefully(t *testing.T) {
	inj, err := chaos.New(chaos.Plan{Write: []chaos.WriteFault{
		{AtWrite: 0, Mode: chaos.ModeError},
		{AtWrite: 1, Mode: chaos.ModeShort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.JournalDir = t.TempDir()
	cfg.WrapJournalWriter = inj.Writer
	_, c := newTestServer(t, cfg)

	st, err := c.SubmitJob(context.Background(), JobRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, c, st.ID); got.State != JobDone {
		t.Fatalf("job under journal faults = %s (%s), want done", got.State, got.Error)
	}
	page := metricsPage(t, c.BaseURL)
	if !strings.Contains(page, "hmemd_journal_append_errors_total 2") {
		t.Fatalf("metrics missing append-error count:\n%s", page)
	}
}

// TestChaosHTTPFaultsRecoverByteIdentical: a client retrying through
// injected connection drops and 5xx responses must land on exactly the bytes
// a fault-free request yields — transient transport chaos never changes
// results.
func TestChaosHTTPFaultsRecoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()
	req := EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly}

	clean, err := c.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	inj, err := chaos.New(chaos.Plan{HTTP: []chaos.HTTPFault{
		{AtRequest: 0, Mode: chaos.ModeDrop},
		{AtRequest: 1, Mode: chaos.ModeError, Code: 503},
	}})
	if err != nil {
		t.Fatal(err)
	}
	chaotic := &Client{
		BaseURL:    c.BaseURL,
		HTTPClient: &http.Client{Transport: inj.RoundTripper(nil), Timeout: 5 * time.Minute},
		Retries:    3,
		Backoff:    time.Millisecond,
	}
	recovered, err := chaotic.Evaluate(ctx, req)
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if got := inj.Stats().HTTP; got != 2 {
		t.Fatalf("injected http faults = %d, want 2", got)
	}

	a, _ := json.Marshal(clean)
	b, _ := json.Marshal(recovered)
	if string(a) != string(b) {
		t.Fatalf("chaos changed result bytes:\n%s\nvs\n%s", a, b)
	}
}

// TestSubmitRejectsNegativeTimeout closes the validation gap for the new
// field.
func TestSubmitRejectsNegativeTimeout(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	_, err := c.SubmitJob(context.Background(), JobRequest{Experiment: "table1", TimeoutMS: -1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}
