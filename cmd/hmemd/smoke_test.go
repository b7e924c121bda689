package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeSmoke boots the real binary with a debug listener, a trace log
// and a 1 KiB body limit, runs examples/service_quickstart against it (two
// identical evaluations, then one job), and checks what an operator sees:
//
//   - a request body over -max-body-bytes is refused with 413;
//   - the result cache served the second evaluation (one hit, one miss)
//     and the job finished;
//   - /metrics exports the job queue depth, the job phase histogram, the
//     engine's simulation counter, and no dropped spans;
//   - /debug/runtime and pprof answer on the debug port and not on the
//     service port;
//   - the trace log holds the job's experiment.* span;
//   - SIGTERM drains with exit status 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the hmemd binary")
	}
	dir := t.TempDir()
	bin := buildHmemd(t, dir)
	debugAddr := freeAddr(t)
	spanLog := filepath.Join(dir, "spans.ndjson")
	d := startHmemd(t, bin, filepath.Join(dir, "journal"),
		"-debug-addr", debugAddr, "-trace-log", spanLog, "-max-body-bytes", "1024")

	big := `{"workload":"astar","policy":"ddr-only","pad":"` + strings.Repeat("x", 2048) + `"}`
	resp, err := http.Post(d.c.BaseURL+"/v1/evaluate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 KiB body under -max-body-bytes 1024: status %d, want 413", resp.StatusCode)
	}

	quickstart := exec.Command("go", "run", "../../examples/service_quickstart", "-addr", d.c.BaseURL)
	if out, err := quickstart.CombinedOutput(); err != nil {
		t.Fatalf("service_quickstart: %v\n%s", err, out)
	}

	for _, line := range []string{
		"hmemd_result_cache_hits_total 1",
		"hmemd_result_cache_misses_total 1",
		`hmemd_jobs{state="done"} 1`,
		"hmemd_spans_dropped_total 0",
	} {
		d.requireMetric(t, line)
	}
	page := d.get(t, d.c.BaseURL+"/metrics", http.StatusOK)
	for _, family := range []string{"hmemd_job_queue_depth", "hmemd_job_phase_seconds_count", "hmem_sim_runs_total"} {
		if !strings.Contains(page, "\n"+family) {
			t.Errorf("/metrics lacks %s", family)
		}
	}

	var runtime struct {
		Goroutines int `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(d.get(t, "http://"+debugAddr+"/debug/runtime", http.StatusOK)), &runtime); err != nil {
		t.Fatal(err)
	}
	if runtime.Goroutines <= 0 {
		t.Errorf("/debug/runtime reports %d goroutines", runtime.Goroutines)
	}
	d.get(t, "http://"+debugAddr+"/debug/pprof/", http.StatusOK)
	d.get(t, d.c.BaseURL+"/debug/pprof/", http.StatusNotFound)

	d.drain(t)

	f, err := os.Open(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	experimentSpan := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var span struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("trace log line %q: %v", sc.Text(), err)
		}
		names = append(names, span.Name)
		experimentSpan = experimentSpan || strings.HasPrefix(span.Name, "experiment.")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !experimentSpan {
		t.Errorf("trace log holds no experiment.* span: %v", names)
	}
}
