package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmem"
)

// TestEvaluateWireGolden pins the response bytes of POST /v1/evaluate for
// every policy on one workload, then of one POST /v1/compare of all of
// them, at tinyConfig. It freezes the Result encoding: field order, float
// rendering and every simulated value. Regenerate with:
//
//	go test ./internal/service/ -run TestEvaluateWireGolden -update-golden
func TestEvaluateWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one simulation per policy")
	}
	svc, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	h := svc.Handler()

	var out strings.Builder
	post := func(path string, body any) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(raw)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "== POST %s %s\nstatus: %d\ncontent-type: %s\n%s",
			path, raw, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	for _, p := range hmem.Policies() {
		post("/v1/evaluate", EvaluateRequest{Workload: "astar", Policy: p})
	}
	post("/v1/compare", CompareRequest{Workload: "astar", Policies: hmem.Policies()})

	got := out.String()
	goldenPath := filepath.Join("testdata", "evalwire.golden")
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
		t.Fatalf("evaluate wire drifted from %s:\n%s", goldenPath,
			diffLines(strings.TrimSuffix(string(want), "\n"), strings.TrimSuffix(got, "\n")))
	}
}
