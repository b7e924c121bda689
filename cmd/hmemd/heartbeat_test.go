package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hmem/internal/service"
)

// TestHeartbeatFollowsGrantedTTL pins that the heartbeat interval comes from
// each successful registration: a worker whose first registration fails
// (its coordinator is not up yet) must still beat every third of the TTL the
// coordinator grants once it answers, not at the default TTL's pace.
func TestHeartbeatFollowsGrantedTTL(t *testing.T) {
	var mu sync.Mutex
	calls, deregistered := 0, false
	var beats []time.Time
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/v1/cluster/register":
			calls++
			if calls == 1 {
				http.Error(w, `{"error":"coordinator starting"}`, http.StatusInternalServerError)
				return
			}
			beats = append(beats, time.Now())
			w.Write([]byte(`{"workers":1,"ttl_seconds":0.3}`))
		case "/v1/cluster/deregister":
			deregistered = true
			w.Write([]byte(`{"removed":true}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer coord.Close()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go heartbeatLoop(ctx, done, svc, &service.Client{BaseURL: coord.URL}, "w1", "http://127.0.0.1:1")
	// The retry after the failed first registration waits the default
	// interval; from the first success on, beats come every 100 ms.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(beats)
		mu.Unlock()
		if n >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(beats) < 4 {
		t.Fatalf("%d successful registrations in 10s, want >= 4", len(beats))
	}
	if d := beats[3].Sub(beats[0]); d > time.Second {
		t.Fatalf("3 re-registrations after a 0.3s TTL grant took %v, want <= 1s", d)
	}
	if !deregistered {
		t.Error("worker did not deregister when its heartbeat stopped")
	}
}
