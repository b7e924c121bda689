package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmem"
	"hmem/internal/service"
)

// startDaemon runs an in-process hmemd for the CLI to target.
func startDaemon(t *testing.T) string {
	t.Helper()
	svc, err := service.New(service.Config{
		Defaults: hmem.Options{RecordsPerCore: 600, FaultTrials: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Shutdown(context.Background())
	})
	return ts.URL
}

// TestRunExitCodes is the CLI acceptance pin: a healthy bounded run exits 0,
// an intentionally impossible SLO exits 1, and usage errors exit 2 — the
// codes CI keys off.
func TestRunExitCodes(t *testing.T) {
	url := startDaemon(t)
	dir := t.TempDir()

	impossible := filepath.Join(dir, "impossible.json")
	if err := os.WriteFile(impossible, []byte(
		`{"classes": {"evaluate": {"max_p99_ms": 1e-9, "min_requests": 1}}}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	passable := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(passable, []byte(`{"max_error_rate": 0.0}`), 0o644); err != nil {
		t.Fatal(err)
	}

	base := []string{
		"-addr", url, "-profile", "sync", "-seed", "5",
		"-max-ops", "12", "-duration", "0", "-workers", "2",
		"-records", "300", "-trials", "50",
	}
	var stdout, stderr bytes.Buffer

	if code := run(append(base, "-slo", passable), &stdout, &stderr); code != 0 {
		t.Fatalf("healthy run exited %d\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "SLO passed") {
		t.Fatalf("no SLO verdict in output: %s", &stdout)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(append(base, "-slo", impossible), &stdout, &stderr); code != 1 {
		t.Fatalf("impossible SLO exited %d, want 1\nstderr: %s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "SLO FAILED") {
		t.Fatalf("no violation report: %s", &stderr)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-profile", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatal("unknown profile accepted")
	}
	if code := run([]string{"-duration", "0"}, &stdout, &stderr); code != 2 {
		t.Fatal("unbounded run accepted")
	}
}

// TestRunArtifacts: one run emits the metrics text and a resumable context;
// a second run resumes from it.
func TestRunArtifacts(t *testing.T) {
	url := startDaemon(t)
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.txt")
	ctxPath := filepath.Join(dir, "ctx.json")

	base := []string{
		"-addr", url, "-profile", "mixed", "-seed", "9",
		"-max-ops", "15", "-duration", "0", "-workers", "2",
		"-records", "300", "-trials", "50",
	}
	var stdout, stderr bytes.Buffer
	code := run(append(base,
		"-metrics-out", metricsOut, "-save-context", ctxPath,
	), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, &stderr)
	}

	metrics, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"hmemload_requests_total", "hmemload_op_duration_seconds", "hmemload_achieved_rps"} {
		if !strings.Contains(string(metrics), family) {
			t.Fatalf("metrics artifact missing %s:\n%s", family, metrics)
		}
	}

	stdout.Reset()
	stderr.Reset()
	code = run(append(base,
		"-load-context", ctxPath, "-save-context", ctxPath,
	), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("resumed run exited %d\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "resuming at op 15") {
		t.Fatalf("resume did not continue the cursor: %s", &stdout)
	}

	// A mismatched context (different seed) must be refused.
	stdout.Reset()
	stderr.Reset()
	bad := append([]string{}, base...)
	bad[5] = "10" // -seed value
	if code := run(append(bad, "-load-context", ctxPath), &stdout, &stderr); code != 2 {
		t.Fatalf("mismatched context exited %d, want 2", code)
	}
}
