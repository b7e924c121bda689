package service

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"hmem"
	"hmem/internal/cluster"
	"hmem/internal/experiments"
)

// TestClusterShardIgnoresRequesterCancel: a worker's shard computation is
// shared by every coordinator request for that shard, so one requester's
// cancellation must not fail the others. Requester A starts the shard and
// ends up waiting on the engine's in-flight profile; requester B joins the
// same memoized computation; A then cancels. B must still get the result,
// not a 500.
func TestClusterShardIgnoresRequesterCancel(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	t.Cleanup(open)
	entered := make(chan struct{})
	var enter sync.Once
	cfg := clusterTestConfig(RoleWorker)
	cfg.TraceWrap = func(_ string, s hmem.TraceStream) hmem.TraceStream {
		enter.Do(func() { close(entered) })
		<-gate
		return s
	}
	svc, wc := newTestServer(t, cfg)

	opts := cfg.Defaults
	en, err := svc.acquireEngineForOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.releaseEngine(en)
	e, digest := en.e, en.digest
	raw, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := cluster.Shard{Kind: cluster.KindProfile, Workload: "astar", Digest: digest, Options: raw}

	// Local traffic owns the engine's profile computation, held at the gate.
	go e.ExecuteBlock(context.Background(), experiments.BlockKey{Kind: experiments.BlockProfile, Workload: "astar"})
	<-entered

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	go func() {
		var out json.RawMessage
		_ = wc.do(ctxA, "POST", "/v1/cluster/shard", sh, &out)
	}()
	waitFor(t, func() bool { return e.CacheStats().Hits >= 1 }) // A waits on the profile

	errB := make(chan error, 1)
	go func() {
		var out json.RawMessage
		errB <- wc.do(context.Background(), "POST", "/v1/cluster/shard", sh, &out)
	}()
	waitFor(t, func() bool { return e.CacheStats().Hits >= 2 }) // B joined A on the profile memo

	cancelA()
	time.Sleep(100 * time.Millisecond) // let A's cancellation land on the worker
	open()
	if err := <-errB; err != nil {
		t.Fatalf("joined requester failed after another requester cancelled: %v", err)
	}
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
