package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestJobWireGolden pins the job API's wire bytes — status codes, the
// Content-Type and Retry-After headers, and bodies with timestamps masked —
// across three daemon lives on one journal directory:
//
//   - life 1 (no workers, queue depth 2): a 202 submit, its keyed 200
//     replay, a 409 key conflict, 400s for an unknown experiment and a
//     negative timeout, a second 202, and a 429 queue-full;
//   - life 2 (one worker): both accepted jobs replay and run to done; a GET,
//     a paged list and the watch stream of a finished job;
//   - life 3 (no workers), after hand-appended journal lines that leave one
//     job interrupted and one running at three crashes: GET and watch of
//     the restored done job, the requeued job and the poison job, plus
//     Recovery().
//
// Every request runs in process through the service's handler, and watches
// run on an already-cancelled context, so a watch of a job that cannot
// finish records exactly its first round of lines. Regenerate with:
//
//	go test ./internal/service/ -run TestJobWireGolden -update-golden
func TestJobWireGolden(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	start := func(workers, depth int) *Service {
		cfg := tinyConfig()
		cfg.JournalDir = dir
		cfg.JobWorkers = workers
		cfg.QueueDepth = depth
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	stop := func(svc *Service) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Life 1: nothing runs, so every body is deterministic.
	svc := start(-1, 2)
	h := svc.Handler()
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"hwcost","idempotency_key":"k1"}`)
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"hwcost","idempotency_key":"k1"}`)
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"hwcost","idempotency_key":"k1","timeout_ms":5}`)
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"figure99"}`)
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"hwcost","timeout_ms":-1}`)
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"table1","options":{"seed":7}}`)
	record(t, &out, h, http.MethodPost, "/v1/jobs", `{"experiment":"hwcost"}`)
	stop(svc)

	// Life 2: replay requeues job-1 and job-2 and the worker runs them.
	svc = start(1, 2)
	h = svc.Handler()
	for _, id := range []string{"job-1", "job-2"} {
		deadline := time.Now().Add(time.Minute)
		for !strings.Contains(serve(h, http.MethodGet, "/v1/jobs/"+id, "").Body.String(), `"state":"done"`) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never finished", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	record(t, &out, h, http.MethodGet, "/v1/jobs/job-1", "")
	record(t, &out, h, http.MethodGet, "/v1/jobs?limit=2&offset=1", "")
	record(t, &out, h, http.MethodGet, "/v1/jobs/job-1?watch=1", "")
	stop(svc)

	// Between lives: job-4 was running at one crash, job-5 at three.
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	seq := 1000
	for _, rec := range []struct{ id, op, state string }{
		{"job-4", "submit", ""}, {"job-4", "state", JobRunning},
		{"job-5", "submit", ""}, {"job-5", "state", JobRunning},
		{"job-5", "state", JobQueued}, {"job-5", "state", JobRunning},
		{"job-5", "state", JobQueued}, {"job-5", "state", JobRunning},
	} {
		seq++
		line := fmt.Sprintf(`{"seq":%d,"op":%q,"job_id":%q,"at":"2026-01-01T00:00:00Z"`, seq, rec.op, rec.id)
		if rec.op == "submit" {
			line += `,"experiment":"table1"`
		} else {
			line += fmt.Sprintf(`,"state":%q`, rec.state)
		}
		if _, err := f.WriteString(line + "}\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 3: inspect the restored, requeued and poison jobs.
	svc = start(-1, 2)
	h = svc.Handler()
	for _, id := range []string{"job-1", "job-4", "job-5"} {
		record(t, &out, h, http.MethodGet, "/v1/jobs/"+id, "")
		record(t, &out, h, http.MethodGet, "/v1/jobs/"+id+"?watch=1", "")
	}
	fmt.Fprintf(&out, "== Recovery()\n%+v\n", svc.Recovery())
	stop(svc)

	got := out.String()
	goldenPath := filepath.Join("testdata", "jobwire.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("job wire drifted from %s:\n%s", goldenPath,
			diffLines(strings.TrimSuffix(string(want), "\n"), strings.TrimSuffix(got, "\n")))
	}
}

// jobWireTimestamp matches the wire's RFC 3339 timestamps, which vary per
// run.
var jobWireTimestamp = regexp.MustCompile(`"(created_at|started_at|finished_at)":"[^"]*"`)

// serve runs one request through h in process. Its context is already
// cancelled: handlers that stream (job watches) write their first round and
// return instead of blocking on a job that cannot move.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// record appends one exchange to the golden transcript.
func record(t *testing.T, out *strings.Builder, h http.Handler, method, path, body string) {
	t.Helper()
	rec := serve(h, method, path, body)
	fmt.Fprintf(out, "== %s %s %s\nstatus: %d\ncontent-type: %s\nretry-after: %s\n%s",
		method, path, body, rec.Code, rec.Header().Get("Content-Type"),
		rec.Header().Get("Retry-After"),
		jobWireTimestamp.ReplaceAllString(rec.Body.String(), `"$1":"T"`))
}
