package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hmem"
	"hmem/internal/chaos"
	"hmem/internal/cluster"
	"hmem/internal/experiments"
)

// clusterTestConfig is tinyConfig restricted to two workloads so the
// fan-out stays test-sized, with a short liveness TTL.
func clusterTestConfig(role string) Config {
	cfg := tinyConfig()
	cfg.Defaults.Workloads = []string{"astar", "mix1"}
	cfg.Role = role
	cfg.Cluster = ClusterConfig{TTL: 2 * time.Second}
	return cfg
}

// startWorkers brings up n worker nodes configured by cfg and registers
// them with the coordinator, returning their services and base URLs.
func startWorkers(t *testing.T, coord *Service, n int, cfg Config) ([]*Service, []string) {
	t.Helper()
	var svcs []*Service
	var urls []string
	for i := 0; i < n; i++ {
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = w.Shutdown(ctx)
			ts.Close()
		})
		id := "w" + string(rune('1'+i))
		if _, err := coord.cluster.reg.Register(cluster.RegisterRequest{ID: id, URL: ts.URL}); err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, w)
		urls = append(urls, ts.URL)
	}
	return svcs, urls
}

// evaluateJSON runs one evaluation and returns the result's canonical JSON.
func evaluateJSON(t *testing.T, c *Client, workload string, policy hmem.PolicyName) []byte {
	t.Helper()
	res, err := c.Evaluate(context.Background(), EvaluateRequest{Workload: workload, Policy: policy})
	if err != nil {
		t.Fatalf("evaluate %s/%s: %v", workload, policy, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestClusterByteIdenticalToStandalone is the subsystem's whole correctness
// contract: the same evaluation — profiling, policy run, migration run, and
// the sharded fault study behind the SER figure — must produce
// byte-identical results standalone, with one worker, and with three.
func TestClusterByteIdenticalToStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations across multiple in-process nodes")
	}
	cases := []struct {
		workload string
		policy   hmem.PolicyName
	}{
		{"astar", "cc-migration"},
		{"mix1", "balanced"},
	}

	cfg := clusterTestConfig(RoleStandalone)
	cfg.Role = ""
	_, standalone := newTestServer(t, cfg)
	var want [][]byte
	for _, tc := range cases {
		want = append(want, evaluateJSON(t, standalone, tc.workload, tc.policy))
	}

	for _, workers := range []int{1, 3} {
		coord, cc := newTestServer(t, clusterTestConfig(RoleCoordinator))
		workerSvcs, _ := startWorkers(t, coord, workers, clusterTestConfig(RoleWorker))
		for i, tc := range cases {
			got := evaluateJSON(t, cc, tc.workload, tc.policy)
			if string(got) != string(want[i]) {
				t.Errorf("%d workers: %s/%s differs from standalone\nstandalone: %s\ncluster:    %s",
					workers, tc.workload, tc.policy, want[i], got)
			}
		}
		stats := coord.cluster.sched.Stats()
		if stats.Placed == 0 {
			t.Errorf("%d workers: coordinator placed no shards — delegation never happened", workers)
		}
		var executed uint64
		for _, w := range workerSvcs {
			executed += w.cluster.executed.Load()
		}
		if executed == 0 {
			t.Errorf("%d workers: no worker executed a shard", workers)
		}
	}
}

// TestClusterBatchByteIdentical routes a batch through a coordinator: each
// item shards independently across the workers (the coordinator records no
// trace: its blocks run on workers), and every item's bytes still match a
// standalone server's batch answer.
func TestClusterBatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations across multiple in-process nodes")
	}
	items := []BatchItem{
		{ID: "a", Workload: "astar", Policy: "cc-migration"},
		{ID: "b", Workload: "astar", Policy: "balanced"},
		{ID: "c", Workload: "mix1", Policy: "perf-focused"},
	}
	ctx := context.Background()

	cfg := clusterTestConfig(RoleStandalone)
	cfg.Role = ""
	standaloneSvc, standalone := newTestServer(t, cfg)
	want, wantSum, err := standalone.CollectBatch(ctx, BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if wantSum.Errors != 0 {
		t.Fatalf("standalone summary = %+v", wantSum)
	}
	if st := standaloneSvc.engineTotals().trace; st.CoalesceHits == 0 {
		t.Error("standalone batch never coalesced — the contrast below is vacuous")
	}

	coord, cc := newTestServer(t, clusterTestConfig(RoleCoordinator))
	workerSvcs, _ := startWorkers(t, coord, 2, clusterTestConfig(RoleWorker))
	got, gotSum, err := cc.CollectBatch(ctx, BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("cluster summary = %+v, want %+v", gotSum, wantSum)
	}
	for i := range want {
		if string(got[i].Result) != string(want[i].Result) || got[i].ID != want[i].ID {
			t.Errorf("item %s: cluster bytes differ from standalone\nstandalone: %s\ncluster:    %s",
				want[i].ID, want[i].Result, got[i].Result)
		}
	}
	// The work really sharded: the workers took and executed it, and no item was
	// replayed from a coordinator-side recording. (Opens may be nonzero: a
	// shard that exhausts its candidates falls back to a local recording by
	// design. CoalesceHits is the invariant — with the delegate installed,
	// blocks run on workers, so no coordinator simulation replays.)
	if coord.cluster.sched.Stats().Placed == 0 {
		t.Error("coordinator placed no shards for the batch")
	}
	var executed uint64
	for _, w := range workerSvcs {
		executed += w.cluster.executed.Load()
	}
	if executed == 0 {
		t.Error("no worker executed a shard for the batch")
	}
	if st := coord.engineTotals().trace; st.CoalesceHits != 0 {
		t.Errorf("coordinator served %d coalesce hits; delegated items must not coalesce locally", st.CoalesceHits)
	}
}

// shardPostRecorder is a coordinator transport that counts shard POSTs by
// shard key before passing them on.
type shardPostRecorder struct {
	mu    sync.Mutex
	posts map[string]int
	kinds map[string]experiments.BlockKind
}

func (rec *shardPostRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/v1/cluster/shard") {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var sh cluster.Shard
		if err := json.Unmarshal(body, &sh); err != nil {
			return nil, err
		}
		var b experiments.Block
		if err := json.Unmarshal(sh.Work, &b); err != nil {
			return nil, err
		}
		rec.mu.Lock()
		rec.posts[sh.Key()]++
		rec.kinds[sh.Key()] = b.Kind
		rec.mu.Unlock()
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClusterBatchPostsEachShardOnce: a multi-policy batch for one workload
// fans out concurrently, and every item needs the same profile and fault
// study. The coordinator's engine memo must coalesce those shared blocks,
// so no shard key is ever posted to a worker twice.
func TestClusterBatchPostsEachShardOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations across multiple in-process nodes")
	}
	rec := &shardPostRecorder{posts: map[string]int{}, kinds: map[string]experiments.BlockKind{}}
	coordCfg := clusterTestConfig(RoleCoordinator)
	coordCfg.Cluster.Transport = rec
	coord, cc := newTestServer(t, coordCfg)
	startWorkers(t, coord, 2, clusterTestConfig(RoleWorker))

	var items []BatchItem
	for _, p := range []hmem.PolicyName{"perf-focused", "balanced", "wr-ratio", "cc-migration", "fc-migration"} {
		items = append(items, BatchItem{ID: string(p), Workload: "astar", Policy: p})
	}
	_, sum, err := cc.CollectBatch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("batch summary = %+v", sum)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	profiles := 0
	for key, n := range rec.posts {
		if n != 1 {
			t.Errorf("%s shard %s posted %d times, want 1", rec.kinds[key], key, n)
		}
		if rec.kinds[key] == experiments.BlockProfile {
			profiles++
		}
	}
	if profiles != 1 {
		t.Errorf("%d profile shards posted, want exactly 1 for the one workload", profiles)
	}
	if st := coord.cluster.sched.Stats(); st.Placed != uint64(len(rec.posts)) {
		t.Errorf("placed %d shards but posted %d distinct keys", st.Placed, len(rec.posts))
	}
}

// TestClusterSurvivesWorkerKill cuts one of two workers off mid-run: every
// shard it owned must be re-placed on the survivor exactly once, and the
// final answer must still be byte-identical to standalone.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations across multiple in-process nodes")
	}
	cfg := clusterTestConfig(RoleStandalone)
	cfg.Role = ""
	_, standalone := newTestServer(t, cfg)
	want := evaluateJSON(t, standalone, "astar", "cc-migration")

	part, err := chaos.New(chaos.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	coordCfg := clusterTestConfig(RoleCoordinator)
	coordCfg.Cluster.Transport = part.RoundTripper(nil)
	coord, cc := newTestServer(t, coordCfg)
	workerSvcs, urls := startWorkers(t, coord, 2, clusterTestConfig(RoleWorker))

	// Warm nothing; partition w1 before the run so every shard placement
	// hands it fails over to w2 on first contact — the deterministic
	// equivalent of killing the process mid-grid.
	w1Host := strings.TrimPrefix(urls[0], "http://")
	part.Block(w1Host)

	got := evaluateJSON(t, cc, "astar", "cc-migration")
	if string(got) != string(want) {
		t.Errorf("result after worker kill differs from standalone\nstandalone: %s\ncluster:    %s", want, got)
	}

	stats := coord.cluster.sched.Stats()
	if stats.Retries == 0 {
		t.Error("no shard was retried — the partition never bit")
	}
	// Exactly once: every failed dispatch moved to the one survivor, so
	// placements = executions on w2 + the failed attempts, and w1 ran
	// nothing.
	if n := workerSvcs[0].cluster.executed.Load(); n != 0 {
		t.Errorf("partitioned worker executed %d shards, want 0", n)
	}
	w2 := workerSvcs[1].cluster.executed.Load()
	if w2 == 0 {
		t.Error("survivor executed nothing")
	}
	if stats.Retries+w2 != stats.Placed {
		t.Errorf("placed=%d retries=%d survivor-executed=%d: each dead shard should re-place exactly once",
			stats.Placed, stats.Retries, w2)
	}
	if part.Stats().HTTP == 0 {
		t.Error("partition dropped no requests")
	}

	// Heal and re-evaluate: the coordinator's result memo answers without
	// any new placement.
	part.Heal()
	before := coord.cluster.sched.Stats().Placed
	_ = evaluateJSON(t, cc, "astar", "cc-migration")
	if after := coord.cluster.sched.Stats().Placed; after != before {
		t.Errorf("re-evaluation re-placed shards (%d -> %d), want cache hit", before, after)
	}
}

// TestClusterPoisonBlockPlacedOnce: a block that panics on every node is a
// deterministic shard failure, not a dead worker. The worker recovers the
// panic and answers 500, so the coordinator places the block once and
// returns the worker's panic: no retry on another worker, no breaker
// failure, no local recompute.
func TestClusterPoisonBlockPlacedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations across multiple in-process nodes")
	}
	poison := func(cfg Config) Config {
		cfg.TraceWrap = func(string, hmem.TraceStream) hmem.TraceStream { return panicStream{} }
		return cfg
	}
	rec := &shardPostRecorder{posts: map[string]int{}, kinds: map[string]experiments.BlockKind{}}
	coordCfg := poison(clusterTestConfig(RoleCoordinator))
	coordCfg.Cluster.Transport = rec
	coord, cc := newTestServer(t, coordCfg)
	startWorkers(t, coord, 2, poison(clusterTestConfig(RoleWorker)))

	_, err := cc.Evaluate(context.Background(), EvaluateRequest{Workload: "astar", Policy: hmem.PolicyDDROnly})
	if err == nil {
		t.Fatal("evaluate of a poison block succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "worker HTTP 500") ||
		strings.Count(msg, "exec: panic in task: stream exploded") != 1 {
		t.Fatalf("coordinator answer = %q, want the worker's panic, once", msg)
	}

	rec.mu.Lock()
	profiles := 0
	for key, n := range rec.posts {
		if n != 1 {
			t.Errorf("%s shard %s posted %d times, want 1", rec.kinds[key], key, n)
		}
		if rec.kinds[key] == experiments.BlockProfile {
			profiles++
		}
	}
	rec.mu.Unlock()
	if profiles != 1 {
		t.Errorf("%d profile shards posted, want the poison block placed once", profiles)
	}
	if page := metricsPage(t, cc.BaseURL); !strings.Contains(page, "hmemd_cluster_retries_total 0") {
		t.Errorf("coordinator retried the poison block:\n%s", page)
	}
	for _, w := range coord.ClusterWorkers() {
		if st := coord.cluster.breakers.Get(w.ID).Stats(); st.WindowFailures != 0 {
			t.Errorf("worker %s breaker recorded %d failures, want 0", w.ID, st.WindowFailures)
		}
	}
}

// TestClusterRegistrationLifecycle exercises the membership endpoints the
// way cmd/hmemd's heartbeat loop drives them, including TTL expiry.
func TestClusterRegistrationLifecycle(t *testing.T) {
	cfg := clusterTestConfig(RoleCoordinator)
	cfg.Cluster.TTL = 150 * time.Millisecond
	coord, cc := newTestServer(t, cfg)
	ctx := context.Background()

	ttl, err := cc.ClusterRegister(ctx, cluster.RegisterRequest{ID: "w1", URL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if ttl != 150*time.Millisecond {
		t.Fatalf("ttl = %s, want 150ms", ttl)
	}
	if _, err := cc.ClusterRegister(ctx, cluster.RegisterRequest{ID: "w2", URL: "http://127.0.0.1:2"}); err != nil {
		t.Fatal(err)
	}
	ws, err := cc.ClusterWorkers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("workers = %d, want 2", len(ws))
	}
	if err := cc.ClusterDeregister(ctx, "w2"); err != nil {
		t.Fatal(err)
	}
	if ws, _ = cc.ClusterWorkers(ctx); len(ws) != 1 {
		t.Fatalf("after deregister: workers = %d, want 1", len(ws))
	}
	// Stop heartbeating w1; the first read past its TTL expires it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ws, _ = cc.ClusterWorkers(ctx); len(ws) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never expired; still %v", ws)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := coord.cluster.reg.Stats(); s.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", s.Expiries)
	}
}

// TestClusterNanosecondTTL: liveness is checked on read, with no timer to
// derive from the TTL, so even a 1 ns TTL gives a coordinator that starts,
// answers its worker list and shuts down cleanly.
func TestClusterNanosecondTTL(t *testing.T) {
	cfg := clusterTestConfig(RoleCoordinator)
	cfg.Cluster.TTL = time.Nanosecond
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cc := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	ttl, err := cc.ClusterRegister(ctx, cluster.RegisterRequest{ID: "w1", URL: "http://127.0.0.1:1"})
	if err != nil || ttl != time.Nanosecond {
		t.Fatalf("register: ttl=%s err=%v, want 1ns", ttl, err)
	}
	if _, err := cc.ClusterWorkers(ctx); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestClusterEndpointsRefuseWrongRole locks in the role discipline: a
// standalone node has no cluster surface, and a coordinator never executes
// shards itself (that way lies delegate recursion).
func TestClusterEndpointsRefuseWrongRole(t *testing.T) {
	_, standalone := newTestServer(t, tinyConfig())
	ctx := context.Background()
	if _, err := standalone.ClusterWorkers(ctx); err == nil {
		t.Error("standalone served /v1/cluster/workers")
	}
	if _, err := standalone.ClusterRegister(ctx, cluster.RegisterRequest{ID: "w", URL: "http://x:1"}); err == nil {
		t.Error("standalone accepted a registration")
	}

	coordCfg := clusterTestConfig(RoleCoordinator)
	coord, cc := newTestServer(t, coordCfg)
	if coord.Role() != RoleCoordinator {
		t.Fatalf("role = %q", coord.Role())
	}
	var out json.RawMessage
	err := cc.do(ctx, "POST", "/v1/cluster/shard", profileShard(t, "x", nil), &out)
	if err == nil {
		t.Error("coordinator executed a shard")
	}

	badCfg := tinyConfig()
	badCfg.Role = "supervisor"
	if _, err := New(badCfg); err == nil {
		t.Error("unknown role accepted")
	}
}

// TestClusterShardDigestMismatch is the skew guard: a worker whose resolved
// options digest differently must refuse the shard rather than answer with
// silently different numbers.
func TestClusterShardDigestMismatch(t *testing.T) {
	_, wc := newTestServer(t, clusterTestConfig(RoleWorker))
	opts := clusterTestConfig(RoleWorker).Defaults
	raw, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := profileShard(t, "deadbeef", raw)
	var out json.RawMessage
	err = wc.do(context.Background(), "POST", "/v1/cluster/shard", sh, &out)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != 409 {
		t.Fatalf("digest mismatch: got %v, want 409", err)
	}
	if !strings.Contains(apiErr.Message, "digest mismatch") {
		t.Fatalf("unexpected message %q", apiErr.Message)
	}
}

// profileShard wraps astar's profile block in a shard envelope.
func profileShard(t *testing.T, digest string, options json.RawMessage) cluster.Shard {
	t.Helper()
	work, err := json.Marshal(experiments.Block{Kind: experiments.BlockProfile, Workload: "astar"})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Shard{Digest: digest, Options: options, Work: work}
}
