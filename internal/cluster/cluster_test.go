package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardKeyStableAndDistinct(t *testing.T) {
	a := Shard{Kind: KindStatic, Digest: "d1", Workload: "astar", Policy: "balanced"}
	if a.Key() != a.Key() {
		t.Error("Key not stable")
	}
	variants := []Shard{
		{Kind: KindProfile, Digest: "d1", Workload: "astar"},
		{Kind: KindStatic, Digest: "d2", Workload: "astar", Policy: "balanced"},
		{Kind: KindStatic, Digest: "d1", Workload: "mcf", Policy: "balanced"},
		{Kind: KindStatic, Digest: "d1", Workload: "astar", Policy: "wr-ratio"},
		{Kind: KindFaultShard, Digest: "d1", Tier: 1, K: 2, Index: 0, Trials: 2048},
		{Kind: KindFaultShard, Digest: "d1", Tier: 1, K: 2, Index: 1, Trials: 2048},
	}
	seen := map[string]Shard{a.Key(): a}
	for _, v := range variants {
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("key collision: %+v vs %+v", v, prev)
		}
		seen[v.Key()] = v
	}
}

func TestShardJSONRoundTrip(t *testing.T) {
	in := Shard{
		Kind: KindDynamic, Digest: "abc", Workload: "mix1", Policy: "cc-migration",
		Options: json.RawMessage(`{"fault_trials":2000}`),
	}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Shard
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed shard:\n got %+v\nwant %+v", out, in)
	}
	if in.Key() != out.Key() {
		t.Error("round trip changed key")
	}
}

func TestShardValidate(t *testing.T) {
	valid := []Shard{
		{Kind: KindProfile, Digest: "d", Workload: "astar"},
		{Kind: KindStatic, Digest: "d", Workload: "astar", Policy: "balanced"},
		{Kind: KindAnnotation, Digest: "d", Workload: "astar"},
		{Kind: KindFaultShard, Digest: "d", Tier: 0, K: 1, Index: 0, Trials: 100},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", s, err)
		}
	}
	invalid := []Shard{
		{},
		{Kind: KindProfile, Digest: "d"},
		{Kind: KindStatic, Digest: "d", Workload: "astar"},
		{Kind: KindFaultShard, Digest: "d", K: 0, Trials: 100},
		{Kind: KindProfile, Workload: "astar"},
		{Kind: "nonsense", Digest: "d"},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: want error, got nil", s)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	g := NewRegistry(time.Minute)
	isNew, err := g.Register(RegisterRequest{ID: "w1", URL: "http://h1:1", Load: 0})
	if err != nil || !isNew {
		t.Fatalf("first register: new=%v err=%v", isNew, err)
	}
	isNew, err = g.Register(RegisterRequest{ID: "w1", URL: "http://h1:2", Load: 3})
	if err != nil || isNew {
		t.Fatalf("heartbeat: new=%v err=%v", isNew, err)
	}
	snap := g.Snapshot()
	if len(snap) != 1 || snap[0].URL != "http://h1:2" || snap[0].Load != 3 {
		t.Fatalf("snapshot after heartbeat: %+v", snap)
	}
	if _, err := g.Register(RegisterRequest{ID: "", URL: "http://x"}); err == nil {
		t.Error("empty id: want error")
	}
	if _, err := g.Register(RegisterRequest{ID: "w2", URL: "ftp://x"}); err == nil {
		t.Error("non-http url: want error")
	}
	if !g.Deregister("w1") || g.Deregister("w1") {
		t.Error("deregister should succeed once")
	}
	st := g.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.Live != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestRegistryExpire(t *testing.T) {
	g := NewRegistry(10 * time.Second)
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	g.Register(RegisterRequest{ID: "old", URL: "http://old"})
	now = now.Add(8 * time.Second)
	g.Register(RegisterRequest{ID: "fresh", URL: "http://fresh"})
	now = now.Add(5 * time.Second) // old: 13s ago, fresh: 5s ago
	dead := g.Expire()
	if len(dead) != 1 || dead[0].ID != "old" {
		t.Fatalf("Expire = %+v, want [old]", dead)
	}
	if g.Len() != 1 {
		t.Errorf("live after expire = %d", g.Len())
	}
	if st := g.Stats(); st.Expiries != 1 {
		t.Errorf("expiries = %d", st.Expiries)
	}
	// The expired worker must also have left the ring.
	if owners := g.Owners("anything", 5); len(owners) != 1 || owners[0].ID != "fresh" {
		t.Errorf("Owners after expire = %+v", owners)
	}
}

// fakeWorker is an httptest worker answering shard POSTs and cache GETs.
type fakeWorker struct {
	t        *testing.T
	id       string
	mu       sync.Mutex
	cache    map[string][]byte
	executed []string
	respond  func(sh Shard) ([]byte, error) // nil = echo key
	srv      *httptest.Server
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	f := &fakeWorker{t: t, id: id, cache: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/shard", func(w http.ResponseWriter, r *http.Request) {
		var sh Shard
		if err := json.NewDecoder(r.Body).Decode(&sh); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.executed = append(f.executed, sh.Key())
		f.mu.Unlock()
		body := []byte(`{"from":"` + f.id + `","key":"` + sh.Key() + `"}`)
		if f.respond != nil {
			var err error
			body, err = f.respond(sh)
			if err != nil {
				http.Error(w, `{"error":"`+err.Error()+`"}`, http.StatusInternalServerError)
				return
			}
		}
		f.mu.Lock()
		f.cache[sh.Key()] = body
		f.mu.Unlock()
		w.Write(body)
	})
	mux.HandleFunc("GET /v1/cluster/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		body, ok := f.cache[r.PathValue("key")]
		f.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"miss"}`, http.StatusNotFound)
			return
		}
		w.Write(body)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) executions() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.executed...)
}

func (f *fakeWorker) register(g *Registry) {
	if _, err := g.Register(RegisterRequest{ID: f.id, URL: f.srv.URL}); err != nil {
		f.t.Fatalf("register %s: %v", f.id, err)
	}
}

func testShard(i int) Shard {
	return Shard{Kind: KindProfile, Digest: "dig", Workload: fmt.Sprintf("wl-%d", i)}
}

func TestSchedulerPlacesAndCaches(t *testing.T) {
	g := NewRegistry(time.Minute)
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	w1.register(g)
	w2.register(g)
	s := &Scheduler{Registry: g}

	sh := testShard(1)
	b1, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("repeat run differs: %s vs %s", b1, b2)
	}
	if n := len(w1.executions()) + len(w2.executions()); n != 1 {
		t.Errorf("%d executions, want 1 (second run from coordinator cache)", n)
	}
	st := s.Stats()
	if st.Placed != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSchedulerConsistentPlacement(t *testing.T) {
	g := NewRegistry(time.Minute)
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	for _, w := range workers {
		w.register(g)
	}
	s := &Scheduler{Registry: g}
	// Each shard must be executed by its ring owner.
	for i := 0; i < 12; i++ {
		sh := testShard(i)
		if _, err := s.Run(context.Background(), sh); err != nil {
			t.Fatal(err)
		}
		owner, _ := g.ring.Owner(sh.Key())
		found := false
		for _, w := range workers {
			for _, k := range w.executions() {
				if k == sh.Key() {
					if w.id != owner {
						t.Errorf("shard %d executed on %s, ring owner is %s", i, w.id, owner)
					}
					found = true
				}
			}
		}
		if !found {
			t.Errorf("shard %d never executed", i)
		}
	}
}

func TestSchedulerRetriesOnDeadWorker(t *testing.T) {
	g := NewRegistry(time.Minute)
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	for _, w := range workers {
		w.register(g)
	}
	// Find a shard owned by w1, then kill w1's server so the dispatch fails
	// at the transport level and must retry on w2.
	var sh Shard
	for i := 0; ; i++ {
		sh = testShard(i)
		if owner, _ := g.ring.Owner(sh.Key()); owner == "w1" {
			break
		}
	}
	workers[0].srv.Close()
	s := &Scheduler{Registry: g}
	body, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatalf("Run through dead owner: %v", err)
	}
	if want := `"from":"w2"`; !contains(string(body), want) {
		t.Errorf("body %s, want executed by w2", body)
	}
	if st := s.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
}

func TestSchedulerPropagatesApplicationFailure(t *testing.T) {
	g := NewRegistry(time.Minute)
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	w1.respond = func(Shard) ([]byte, error) { return nil, errors.New("bad workload") }
	w2.respond = w1.respond
	w1.register(g)
	w2.register(g)
	s := &Scheduler{Registry: g}
	_, err := s.Run(context.Background(), testShard(1))
	var werr *WorkerError
	if !errors.As(err, &werr) || werr.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want WorkerError 500", err)
	}
	// Deterministic failure: exactly one worker was asked.
	if n := len(w1.executions()) + len(w2.executions()); n != 1 {
		t.Errorf("%d executions, want 1 (no retry on application failure)", n)
	}
	// And the failure is not cached: a later Run asks again.
	if _, err := s.Run(context.Background(), testShard(1)); err == nil {
		t.Error("second run should fail again")
	}
	if n := len(w1.executions()) + len(w2.executions()); n != 2 {
		t.Errorf("%d executions after retry, want 2 (errors not cached)", n)
	}
}

func TestSchedulerNoWorkers(t *testing.T) {
	s := &Scheduler{Registry: NewRegistry(time.Minute)}
	_, err := s.Run(context.Background(), testShard(1))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestSchedulerPeerCacheHit(t *testing.T) {
	g := NewRegistry(time.Minute)
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	w1.register(g)
	w2.register(g)
	sh := testShard(7)
	// Pre-fill the NON-owner's cache: the peer scan must find it and no
	// worker may execute.
	owner, _ := g.ring.Owner(sh.Key())
	other := w1
	if owner == "w1" {
		other = w2
	}
	other.mu.Lock()
	other.cache[sh.Key()] = []byte(`{"from":"peer-cache"}`)
	other.mu.Unlock()

	s := &Scheduler{Registry: g}
	body, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(string(body), "peer-cache") {
		t.Errorf("body %s, want peer-cache payload", body)
	}
	if n := len(w1.executions()) + len(w2.executions()); n != 0 {
		t.Errorf("%d executions, want 0 (answered from peer cache)", n)
	}
	if st := s.Stats(); st.PeerHits != 1 {
		t.Errorf("peer hits = %d, want 1", st.PeerHits)
	}
}

func TestSchedulerStealsFromStraggler(t *testing.T) {
	g := NewRegistry(time.Minute)
	slow := newFakeWorker(t, "w1")
	fast := newFakeWorker(t, "w2")
	release := make(chan struct{})
	var stalled atomic.Bool
	slow.respond = func(sh Shard) ([]byte, error) {
		stalled.Store(true)
		<-release
		return []byte(`{"from":"w1-late"}`), nil
	}
	defer close(release)
	slow.register(g)
	fast.register(g)
	// Pick a shard owned by the slow worker.
	var sh Shard
	for i := 0; ; i++ {
		sh = testShard(i)
		if owner, _ := g.ring.Owner(sh.Key()); owner == "w1" {
			break
		}
	}
	s := &Scheduler{Registry: g, StealAfter: 30 * time.Millisecond}
	body, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if !stalled.Load() {
		t.Fatal("owner never received the shard (test setup broken)")
	}
	if !contains(string(body), `"from":"w2"`) {
		t.Errorf("body %s, want hedged result from w2", body)
	}
	if st := s.Stats(); st.Hedges != 1 {
		t.Errorf("hedges = %d, want 1", st.Hedges)
	}
}

func TestSchedulerRunAllOrdered(t *testing.T) {
	g := NewRegistry(time.Minute)
	newFakeWorker(t, "w1").register(g)
	newFakeWorker(t, "w2").register(g)
	s := &Scheduler{Registry: g}
	shards := make([]Shard, 9)
	for i := range shards {
		shards[i] = testShard(i)
	}
	got, err := s.RunAll(context.Background(), 4, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if !contains(string(b), shards[i].Key()) {
			t.Errorf("result %d out of order: %s", i, b)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestCacheSuccessCachedErrorsRetried: the scheduler's shard cache keeps
// successes only. A failed dispatch reaches its caller and is forgotten, so
// the next Run dispatches again; that success is then served from cache.
func TestCacheSuccessCachedErrorsRetried(t *testing.T) {
	g := NewRegistry(time.Minute)
	w := newFakeWorker(t, "w1")
	var calls atomic.Int32
	w.respond = func(sh Shard) ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return []byte(`{"ok":true}`), nil
	}
	w.register(g)
	s := &Scheduler{Registry: g}
	sh := testShard(1)

	if _, err := s.Run(context.Background(), sh); err == nil {
		t.Fatal("first Run should fail")
	}
	if _, ok := s.Peek(sh.Key()); ok {
		t.Fatal("failed dispatch was cached")
	}
	for i := 0; i < 2; i++ {
		v, err := s.Run(context.Background(), sh)
		if err != nil || string(v) != `{"ok":true}` {
			t.Fatalf("Run %d: %q, %v", i+2, v, err)
		}
	}
	if n := len(w.executions()); n != 2 {
		t.Errorf("%d executions, want 2 (error retried, success cached)", n)
	}
	if _, ok := s.Peek(sh.Key()); !ok {
		t.Error("Peek should find the completed shard")
	}
	if _, ok := s.Peek("missing"); ok {
		t.Error("Peek of unknown key should miss")
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Errorf("stats = %+v, want 1 cache hit / 2 misses", st)
	}
}

// TestCacheSingleflight: concurrent Runs of one shard share one dispatch.
func TestCacheSingleflight(t *testing.T) {
	g := NewRegistry(time.Minute)
	w := newFakeWorker(t, "w1")
	start := make(chan struct{})
	w.respond = func(sh Shard) ([]byte, error) {
		<-start
		return []byte("shared"), nil
	}
	w.register(g)
	s := &Scheduler{Registry: g}

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Run(context.Background(), testShard(1))
			if err != nil || string(v) != "shared" {
				t.Errorf("Run: %q, %v", v, err)
			}
		}()
	}
	// Release the dispatch once every other caller has joined it.
	for s.Stats().CacheHits < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(start)
	wg.Wait()
	if n := len(w.executions()); n != 1 {
		t.Errorf("%d dispatches ran, want 1", n)
	}
}
