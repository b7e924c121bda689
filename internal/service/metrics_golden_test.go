package service

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The golden exposition test freezes the /metrics contract: every family
// name, HELP/TYPE line, label set, and series — in exact render order — plus
// every value that is deterministic for a fixed request sequence. Timing-
// dependent values (histogram buckets and sums, and anything touched by the
// scrape loop itself) are masked to "X" before comparison, so the golden
// pins structure everywhere and values wherever determinism allows.
//
// Regenerate after an intentional contract change with:
//
//	go test ./internal/service/ -run TestMetricsGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics.golden from the live rendering")

// maskMetricsPage replaces timing-dependent sample values with "X":
//   - histogram _bucket and _sum lines (latencies vary run to run);
//   - the admission drain-rate gauge (an EWMA of wall time);
//   - every line mentioning the "GET /metrics" route (the assertion loop
//     below scrapes an unpredictable number of times).
//
// Histogram _count lines and all other series keep their exact values.
func maskMetricsPage(page string) string {
	var out strings.Builder
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			out.WriteString(line)
			out.WriteString("\n")
			continue
		}
		mask := strings.Contains(line, `route="GET /metrics"`)
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name := line[:i]
			if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") ||
				name == "hmemd_admission_drain_rate" {
				mask = true
			}
		}
		if mask {
			if i := strings.LastIndex(line, " "); i >= 0 {
				line = line[:i] + " X"
			}
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	s := out.String()
	return strings.TrimSuffix(s, "\n")
}

func TestMetricsGolden(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	// A fixed request sequence: one health probe, then one instant job
	// (hwcost is a prebuilt table — no simulations, exactly one span) run to
	// completion via submit + watch + final fetch.
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(ctx, JobRequest{Experiment: "hwcost"}, nil); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "metrics.golden")
	scrape := func() string {
		resp, err := http.Get(c.BaseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("content type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return maskMetricsPage(string(body))
	}

	// The first scrape cannot match: the "GET /metrics" route series only
	// materializes once a scrape has been observed, and middleware
	// observations from the watch stream may still be landing. Scrape until
	// the page settles onto the golden.
	scrape()
	if *updateGolden {
		time.Sleep(50 * time.Millisecond)
		page := scrape()
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(page+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSuffix(string(wantBytes), "\n")

	deadline := time.Now().Add(5 * time.Second)
	var got string
	for {
		got = scrape()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("masked /metrics never settled onto the golden.\n%s", diffLines(want, got))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// diffLines renders a minimal line diff for golden mismatches.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
		}
	}
	if b.Len() == 0 {
		return "(no line-level differences; lengths differ?)"
	}
	return b.String()
}
