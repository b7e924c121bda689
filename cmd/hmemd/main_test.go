package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hmem/internal/service"
)

// TestKillRestartResumesJobs drives the real binary through three lives on
// one journal, killing it with SIGKILL between them:
//
//  1. no workers: accept three keyed jobs, then die with all of them queued;
//  2. one worker: replay all three and run each to done, then die again;
//  3. serve every result straight from the journal and drain on SIGTERM.
//
// After life 2 the journal must hold exactly one running and one done
// record per job (zero double-runs); lives 2 and 3 must report three
// replayed jobs, and life 3 three done jobs with results (zero lost) that
// it did not run again.
func TestKillRestartResumesJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the hmemd binary")
	}
	dir := t.TempDir()
	bin := buildHmemd(t, dir)
	jdir := filepath.Join(dir, "journal")
	ctx := context.Background()

	// Life 1: accept jobs with no workers, then die hard.
	d := startHmemd(t, bin, jdir, "-job-workers", "-1")
	var ids []string
	for i := 1; i <= 3; i++ {
		st, err := d.c.SubmitJob(ctx, service.JobRequest{Experiment: "table1", IdempotencyKey: fmt.Sprintf("smoke-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	d.kill(t)

	// Life 2: every accepted job must finish.
	d = startHmemd(t, bin, jdir)
	for _, id := range ids {
		if st, err := d.c.WaitJob(ctx, id, nil); err != nil || st.State != service.JobDone {
			t.Fatalf("job %s after restart: state %q, err %v", id, st.State, err)
		}
	}
	d.requireMetric(t, "hmemd_journal_replayed_jobs 3")
	d.kill(t)

	// Zero double-run, checked on the raw journal lines.
	for _, id := range ids {
		for _, state := range []string{service.JobRunning, service.JobDone} {
			if n := journalRecords(t, jdir, id, state); n != 1 {
				t.Fatalf("job %s: %d %s records, want exactly 1", id, n, state)
			}
		}
	}

	// Life 3: zero lost — results come straight from the journal.
	d = startHmemd(t, bin, jdir)
	for _, id := range ids {
		st, err := d.c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.JobDone || st.Result == nil || len(st.Result.Rows) == 0 {
			t.Fatalf("job %s in life 3: state %q, result %v", id, st.State, st.Result)
		}
	}
	d.requireMetric(t, "hmemd_journal_replayed_jobs 3")
	d.requireMetric(t, `hmemd_jobs{state="done"} 3`)
	d.drain(t)
	// Life 3 restored the jobs as done and ran nothing: its startup
	// compaction dropped life 2's running records, and none came back.
	for _, id := range ids {
		if n := journalRecords(t, jdir, id, service.JobRunning); n != 0 {
			t.Fatalf("job %s ran again in life 3 (%d running records)", id, n)
		}
	}
}

// journalRecords counts the journal's state records that move job id to
// state, matching the raw lines the way a grep would.
func journalRecords(t *testing.T, jdir, id, state string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(jdir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`"op":"state","job_id":"` + id + `",.*"state":"` + state + `"`)
	return len(re.FindAll(raw, -1))
}

// hmemdProc is one running hmemd process and a client for it.
type hmemdProc struct {
	cmd *exec.Cmd
	c   *service.Client
}

// buildHmemd builds the hmemd binary into dir and returns its path.
func buildHmemd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hmemd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building hmemd: %v", err)
	}
	return bin
}

// freeAddr returns a localhost address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startHmemd boots bin on a free localhost port with journal jdir and
// returns once /healthz answers. The process is killed at test cleanup if
// it is still running.
func startHmemd(t *testing.T, bin, jdir string, extra ...string) *hmemdProc {
	t.Helper()
	addr := freeAddr(t)
	args := append([]string{"-addr", addr, "-records", "3000", "-fault-trials", "2000", "-journal-dir", jdir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	d := &hmemdProc{cmd: cmd, c: &service.Client{BaseURL: "http://" + addr}}
	deadline := time.Now().Add(30 * time.Second)
	for d.c.Healthz(context.Background()) != nil {
		if time.Now().After(deadline) {
			t.Fatal("hmemd never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}
	return d
}

// kill ends the process with SIGKILL, as a crash would.
func (d *hmemdProc) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()
}

// drain sends SIGTERM and requires a clean exit.
func (d *hmemdProc) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("hmemd after SIGTERM: %v, want exit 0", err)
	}
}

// requireMetric fails unless /metrics carries line.
func (d *hmemdProc) requireMetric(t *testing.T, line string) {
	t.Helper()
	if page := d.get(t, d.c.BaseURL+"/metrics", http.StatusOK); !strings.Contains(page, line+"\n") {
		t.Fatalf("/metrics lacks %q:\n%s", line, page)
	}
}

// metric reads the value of the label-free series name from /metrics.
func (d *hmemdProc) metric(t *testing.T, name string) float64 {
	t.Helper()
	page := d.get(t, d.c.BaseURL+"/metrics", http.StatusOK)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("/metrics lacks %s", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// get fetches url and fails unless it answers with status want.
func (d *hmemdProc) get(t *testing.T, url string, want int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	return string(body)
}
