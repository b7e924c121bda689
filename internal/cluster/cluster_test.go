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

	"hmem/internal/breaker"
)

func TestShardKeyStableAndDistinct(t *testing.T) {
	a := Shard{Digest: "d1", Work: json.RawMessage(`{"kind":"static","workload":"astar","name":"balanced"}`)}
	if a.Key() != a.Key() {
		t.Error("Key not stable")
	}
	variants := []Shard{
		{Digest: "d2", Work: a.Work},
		{Digest: "d1", Work: json.RawMessage(`{"kind":"static","workload":"mcf","name":"balanced"}`)},
		{Digest: "d1", Work: json.RawMessage(`{"kind":"static","workload":"astar","name":"wr-ratio"}`)},
		{Digest: "d1", Work: json.RawMessage(`{"kind":"fault-shard","tier":1,"job":{"k":2,"shard":0,"n":2048}}`)},
		{Digest: "d1", Work: json.RawMessage(`{"kind":"fault-shard","tier":1,"job":{"k":2,"shard":1,"n":2048}}`)},
		{Digest: "d1", Options: json.RawMessage(`{"seed":7}`), Work: json.RawMessage(`{}`)},
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
		Digest:  "abc",
		Options: json.RawMessage(`{"fault_trials":2000}`),
		Work:    json.RawMessage(`{"kind":"dynamic","workload":"mix1","name":"cc-reliability"}`),
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
	if err := (Shard{Digest: "d", Work: json.RawMessage(`{}`)}).Validate(); err != nil {
		t.Errorf("unexpected error %v", err)
	}
	invalid := []Shard{
		{},
		{Digest: "d"},
		{Work: json.RawMessage(`{"kind":"profile","workload":"astar"}`)},
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
	if st.Live != 0 {
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

// fakeWorker is an httptest worker answering shard POSTs.
type fakeWorker struct {
	t        *testing.T
	id       string
	mu       sync.Mutex
	executed []string
	respond  func(sh Shard) ([]byte, error) // nil = echo key
	srv      *httptest.Server
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	f := &fakeWorker{t: t, id: id}
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
	return Shard{Digest: "dig", Work: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))}
}

// TestSchedulerPlacesOnOwner: the scheduler keeps no results, so every Run
// places the shard, and a repeat lands on the same ring owner, whose engine
// memo answers it.
func TestSchedulerPlacesOnOwner(t *testing.T) {
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
	owner, _ := g.ring.Owner(sh.Key())
	for _, w := range []*fakeWorker{w1, w2} {
		want := 0
		if w.id == owner {
			want = 2
		}
		if n := len(w.executions()); n != want {
			t.Errorf("%s executed %d times, want %d (owner %s)", w.id, n, want, owner)
		}
	}
	if st := s.Stats(); st.Placed != 2 {
		t.Errorf("stats = %+v, want 2 placements", st)
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

// TestSchedulerQuarantinedWorkerGetsNoTraffic: a worker whose breaker is
// open receives no request of any kind, even one that stalls until its
// caller gives up, so fresh shards run at the healthy worker's pace.
func TestSchedulerQuarantinedWorkerGetsNoTraffic(t *testing.T) {
	g := NewRegistry(time.Minute)
	var stalledHits atomic.Int64
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stalledHits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, `{"error":"stalled"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(stalled.Close)
	t.Cleanup(func() { close(release) })
	if _, err := g.Register(RegisterRequest{ID: "stalled", URL: stalled.URL}); err != nil {
		t.Fatal(err)
	}
	healthy := newFakeWorker(t, "healthy")
	healthy.register(g)

	breakers := &breaker.Set{}
	tripBreaker(breakers.Get("stalled"))
	s := &Scheduler{Registry: g, Breakers: breakers}

	const n = 10
	start := time.Now()
	for i := 0; i < n; i++ {
		body, err := s.Run(context.Background(), testShard(i))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !contains(string(body), `"from":"healthy"`) {
			t.Errorf("shard %d body %s, want executed by the healthy worker", i, body)
		}
	}
	elapsed := time.Since(start)
	if got := stalledHits.Load(); got != 0 {
		t.Errorf("quarantined worker received %d requests, want 0", got)
	}
	if limit := n * 200 * time.Millisecond / 2; elapsed > limit {
		t.Errorf("%d fresh shards took %v, want under %v", n, elapsed, limit)
	}
	if st := s.Stats(); st.BreakerSkips == 0 {
		t.Error("placement never skipped the quarantined worker; the test exercised nothing")
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

// tripBreaker fails calls through b until it opens, which quarantines its
// worker for the breaker's fixed 5 s — longer than the tests using it run.
func tripBreaker(b *breaker.Breaker) {
	for b.State() != breaker.Open {
		done, _ := b.Allow()
		done(false)
	}
}
