package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPartitionBlocksAndHeals(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := srv.Listener.Addr().String()

	p := mustInjector(t, Plan{})
	client := &http.Client{Transport: p.RoundTripper(nil)}

	get := func() error {
		resp, err := client.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	if err := get(); err != nil {
		t.Fatalf("unpartitioned request failed: %v", err)
	}
	p.Block(host)
	err := get()
	if err == nil {
		t.Fatal("partitioned request succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partition error should wrap ErrInjected, got %v", err)
	}
	p.Block("other:1") // unrelated hosts do not interfere
	if err := get(); err == nil {
		t.Fatal("still partitioned, request succeeded")
	}
	p.Heal(host)
	if err := get(); err != nil {
		t.Fatalf("healed request failed: %v", err)
	}
	p.Block(host)
	p.Heal() // heal-all
	if err := get(); err != nil {
		t.Fatalf("heal-all request failed: %v", err)
	}
	if got := p.Stats().HTTP; got != 2 {
		t.Fatalf("Stats().HTTP = %d, want 2 dropped requests", got)
	}
}

func TestSlowdownDelaysOnlyTargetedHost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer other.Close()

	sd := mustInjector(t, Plan{})
	client := &http.Client{Transport: sd.RoundTripper(nil)}
	slowedHost := srv.Listener.Addr().String()
	sd.SetDelay(slowedHost, 80*time.Millisecond)

	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("slowed request took %v, want >= 80ms", d)
	}
	if got := sd.Stats().HTTP; got != 1 {
		t.Fatalf("Stats().HTTP = %d, want 1", got)
	}

	// The untargeted host is untouched.
	start = time.Now()
	resp, err = client.Get(other.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("untargeted request took %v, want fast", d)
	}
	if got := sd.Stats().HTTP; got != 1 {
		t.Fatalf("Stats().HTTP = %d after untargeted request, want still 1", got)
	}

	// Heal restores the slowed host.
	sd.Heal()
	start = time.Now()
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("cleared request took %v, want fast", d)
	}
}

// TestSlowdownHonorsContext pins that a caller deadline fires during the
// injected sleep — the property that turns a brownout into breaker evidence:
// the scheduler's per-request timeout expires and the dispatch fails.
func TestSlowdownHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	sd := mustInjector(t, Plan{})
	sd.SetDelay(srv.Listener.Addr().String(), 10*time.Second)
	client := &http.Client{Transport: sd.RoundTripper(nil)}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("request through a 10s slowdown with a 50ms deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire, want ~50ms", d)
	}
}

// TestHTTPFaultWindow pins ThroughRequest semantics: the fault fires on every
// request in [AtRequest, ThroughRequest] and nothing outside it.
func TestHTTPFaultWindow(t *testing.T) {
	inj := mustInjector(t, Plan{HTTP: []HTTPFault{
		{AtRequest: 1, ThroughRequest: 3, Mode: ModeError, Code: 503},
	}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := &http.Client{Transport: inj.RoundTripper(nil)}

	wantCodes := []int{200, 503, 503, 503, 200}
	for i, want := range wantCodes {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("request %d: code %d, want %d", i, resp.StatusCode, want)
		}
	}
	if got := inj.Stats().HTTP; got != 3 {
		t.Fatalf("injected %d HTTP faults, want 3", got)
	}
}

func TestHTTPFaultWindowValidation(t *testing.T) {
	_, err := New(Plan{HTTP: []HTTPFault{
		{AtRequest: 5, ThroughRequest: 2, Mode: ModeError},
	}})
	if err == nil {
		t.Fatal("inverted window validated")
	}
}

// TestHTTPLatencyHonorsContext: a plan's injected latency ends when the
// request's context does, so a caller past its deadline never waits out the
// full stall.
func TestHTTPLatencyHonorsContext(t *testing.T) {
	plan := Plan{HTTP: []HTTPFault{{AtRequest: 0, Mode: ModeLatency, LatencyMS: 2000}}}
	t.Run("round-tripper", func(t *testing.T) {
		inj := mustInjector(t, plan)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "ok")
		}))
		defer srv.Close()
		client := &http.Client{Transport: inj.RoundTripper(nil), Timeout: 50 * time.Millisecond}
		start := time.Now()
		if _, err := client.Get(srv.URL); err == nil {
			t.Fatal("request through a 2s latency fault with a 50ms timeout succeeded")
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("timed-out request returned after %v, want < 1s", d)
		}
	})
}

// TestHostFaultsComposeWithPlan pins the order of the two fault kinds on one
// transport: a blocked host's request fails before the plan sees it (so it
// consumes no plan index), a slowed host's request waits out its delay and
// then meets the plan fault for its index, and both kinds count in
// Stats().HTTP.
func TestHostFaultsComposeWithPlan(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := srv.Listener.Addr().String()
	inj := mustInjector(t, Plan{HTTP: []HTTPFault{{AtRequest: 0, Mode: ModeError, Code: 502}}})
	client := &http.Client{Transport: inj.RoundTripper(nil)}
	status := func() (int, error) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	inj.Block(host)
	if _, err := status(); !errors.Is(err, ErrInjected) {
		t.Fatalf("blocked request: err = %v, want ErrInjected", err)
	}
	inj.Heal()
	inj.SetDelay(host, 30*time.Millisecond)
	start := time.Now()
	if code, err := status(); err != nil || code != 502 {
		t.Fatalf("slowed request 0: code %d err %v, want the plan's 502", code, err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("slowed request took %v, want >= 30ms", d)
	}
	inj.SetDelay(host, 0)
	if code, err := status(); err != nil || code != 200 {
		t.Fatalf("request 1: code %d err %v, want 200", code, err)
	}
	if got := inj.Stats().HTTP; got != 3 {
		t.Fatalf("Stats().HTTP = %d, want 3 (drop, delay, plan error)", got)
	}
}

// TestExamplePlansLoad loads every plan under examples/chaos through New,
// rejecting unknown fields, so a plan that no longer parses or validates
// fails here rather than under hmemload -chaos.
func TestExamplePlansLoad(t *testing.T) {
	paths, err := filepath.Glob("../../examples/chaos/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example plans found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var plan Plan
		if err := dec.Decode(&plan); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := New(plan); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
