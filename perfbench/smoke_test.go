package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds perfbench and hmemd and runs every workload at 500
// records per core with 2-second windows, with the same flags run.sh
// passes on, requiring a correct result that carries every metric.
// Traced runs are included unless -short is set.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, b := range []struct{ out, pkg string }{{"perfbench", "."}, {"hmemd", "hmem/cmd/hmemd"}} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, b.out), b.pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("building %s: %v", b.pkg, err)
		}
	}
	traces := []string{"0"}
	if !testing.Short() {
		traces = append(traces, "1")
	}
	for _, w := range workloadOrder {
		for _, tr := range traces {
			t.Run(w+"/trace="+tr, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(dir, "perfbench"),
					"--workload", w, "--seed", "3", "--seconds", "2", "--trace", tr,
					"--records", "500", "--root", "..", "--hmemd", filepath.Join(dir, "hmemd"))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run failed: %v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("result correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out)
				}
				defs := endToEnd
				if tr == "1" {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
					}
				}
			})
		}
	}
}
