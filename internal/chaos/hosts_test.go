package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPartitionBlocksAndHeals(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := srv.Listener.Addr().String()

	p := NewHostFaults(nil)
	client := &http.Client{Transport: p}

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
	if got := p.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
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

	sd := NewHostFaults(nil)
	client := &http.Client{Transport: sd}
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
	if got := sd.Delayed(); got != 1 {
		t.Fatalf("Delayed() = %d, want 1", got)
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
	if got := sd.Delayed(); got != 1 {
		t.Fatalf("Delayed() = %d after untargeted request, want still 1", got)
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

	sd := NewHostFaults(nil)
	sd.SetDelay(srv.Listener.Addr().String(), 10*time.Second)
	client := &http.Client{Transport: sd}

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
	inj, err := New(Plan{HTTP: []HTTPFault{
		{AtRequest: 1, ThroughRequest: 3, Mode: ModeError, Code: 503},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(inj.Handler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	})))
	defer srv.Close()

	wantCodes := []int{200, 503, 503, 503, 200}
	for i, want := range wantCodes {
		resp, err := http.Get(srv.URL)
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
// request's context does, on the client and the server side alike, so a
// caller past its deadline never waits out the full stall.
func TestHTTPLatencyHonorsContext(t *testing.T) {
	plan := Plan{HTTP: []HTTPFault{{AtRequest: 0, Mode: ModeLatency, LatencyMS: 2000}}}
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })

	t.Run("round-tripper", func(t *testing.T) {
		inj, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(ok)
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
	t.Run("handler", func(t *testing.T) {
		inj, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		start := time.Now()
		inj.Handler(ok).ServeHTTP(rec, req)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("handler held an abandoned request for %v, want < 1s", d)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("abandoned request was served: %q", rec.Body)
		}
	})
}
