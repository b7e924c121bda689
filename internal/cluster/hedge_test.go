package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hmem/internal/breaker"
)

func TestHedgeDelayAdaptive(t *testing.T) {
	s := &Scheduler{StealAfter: 2 * time.Second}

	// Below hedgeMinSamples the fixed StealAfter is the fallback.
	if d := s.hedgeDelay(); d != 2*time.Second {
		t.Fatalf("delay with no samples = %v, want StealAfter", d)
	}
	// 10 samples at 400ms: p90 = 400ms, ×2 multiplier = 800ms — inside the
	// [StealAfter/4, StealAfter] = [500ms, 2s] clamp.
	for i := 0; i < 10; i++ {
		s.lat.observe(400 * time.Millisecond)
	}
	if d := s.hedgeDelay(); d != 800*time.Millisecond {
		t.Fatalf("adaptive delay = %v, want 800ms (2 × p90)", d)
	}
	// Fast shards cannot collapse the delay below StealAfter/4.
	for i := 0; i < latencyWindowCap; i++ {
		s.lat.observe(time.Millisecond)
	}
	if d := s.hedgeDelay(); d != 500*time.Millisecond {
		t.Fatalf("clamped-low delay = %v, want StealAfter/4", d)
	}
	// Slow shards cannot stretch it past StealAfter.
	for i := 0; i < latencyWindowCap; i++ {
		s.lat.observe(10 * time.Second)
	}
	if d := s.hedgeDelay(); d != 2*time.Second {
		t.Fatalf("clamped-high delay = %v, want StealAfter", d)
	}
	// Zero StealAfter disables hedging regardless of samples.
	s.StealAfter = 0
	if d := s.hedgeDelay(); d != 0 {
		t.Fatalf("delay with StealAfter=0 = %v, want 0", d)
	}
}

func TestHedgeBudget(t *testing.T) {
	s := &Scheduler{}

	// The burst allowance covers the first two hedges with no credit earned.
	if !s.spendHedge() || !s.spendHedge() {
		t.Fatal("burst allowance refused a hedge")
	}
	if s.spendHedge() {
		t.Fatal("third hedge granted with no earned credit")
	}
	// Three placements earn 0.75 of a token — still short.
	for i := 0; i < 3; i++ {
		s.earnHedge()
	}
	if s.spendHedge() {
		t.Fatal("hedge granted at 0.75 earned tokens")
	}
	// The fourth placement completes the token.
	s.earnHedge()
	if !s.spendHedge() {
		t.Fatal("hedge refused with a full earned token")
	}
	if s.spendHedge() {
		t.Fatal("hedge granted beyond the budget")
	}
}

// TestHedgeLogNamesPrimaryWorker: when the ring owner's breaker refuses the
// dispatch, the primary lands on the next candidate, and the hedge log must
// name that worker as the straggler, not the skipped owner.
func TestHedgeLogNamesPrimaryWorker(t *testing.T) {
	g := NewRegistry(time.Minute)
	workers := map[string]*fakeWorker{}
	for _, id := range []string{"w1", "w2", "w3"} {
		workers[id] = newFakeWorker(t, id)
		workers[id].register(g)
	}
	sh := testShard(0)
	owners := g.Owners(sh.Key(), 3)
	skipped, straggler, hedge := owners[0].ID, owners[1].ID, owners[2].ID

	release := make(chan struct{})
	defer close(release)
	workers[straggler].respond = func(Shard) ([]byte, error) {
		<-release
		return []byte(`{}`), nil
	}
	breakers := &breaker.Set{Config: breaker.Config{MinSamples: 1, OpenFor: time.Minute}}
	done, _ := breakers.Get(skipped).Allow()
	done(false) // trips the owner's breaker open

	var mu sync.Mutex
	var logs []string
	s := &Scheduler{
		Registry: g, Breakers: breakers, StealAfter: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	if _, err := s.Run(context.Background(), sh); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := fmt.Sprintf("straggling on %s, hedging onto %s", straggler, hedge)
	for _, l := range logs {
		if strings.Contains(l, want) {
			return
		}
	}
	t.Fatalf("no log line contains %q; got:\n%s", want, strings.Join(logs, "\n"))
}
