package cluster

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestClusterStealRaceBothSucceed is a race-detector regression for the
// hedging window: the owner stalls long enough for a duplicate
// dispatch, then BOTH dispatches succeed. Shard results are deterministic,
// so the two bodies are identical — the contract is that the first success
// wins, exactly one result is merged, and the loser's late write is
// discarded without a race.
func TestClusterStealRaceBothSucceed(t *testing.T) {
	g := NewRegistry(time.Minute)
	owner := newFakeWorker(t, "w1")
	thief := newFakeWorker(t, "w2")

	const payload = `{"result":"deterministic-shard-result"}`
	ownerRelease := make(chan struct{})
	var releaseOnce sync.Once
	owner.respond = func(sh Shard) ([]byte, error) {
		// Stall until the hedged duplicate has landed, then succeed too: the
		// loser's write races the winner's merge, which is exactly what the
		// race detector is here to check.
		<-ownerRelease
		return []byte(payload), nil
	}
	thief.respond = func(sh Shard) ([]byte, error) {
		releaseOnce.Do(func() { close(ownerRelease) })
		return []byte(payload), nil
	}
	owner.register(g)
	thief.register(g)

	// Pick a shard whose ring owner is the stalling worker.
	var sh Shard
	for i := 0; ; i++ {
		sh = testShard(i)
		if o, _ := g.ring.Owner(sh.Key()); o == "w1" {
			break
		}
	}

	s := &Scheduler{Registry: g, StealAfter: 20 * time.Millisecond}
	body, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != payload {
		t.Fatalf("merged body = %s, want the shared deterministic payload", body)
	}

	// Both dispatches ran — wait out the loser (Run returns on the first
	// success; the duplicate may still be finishing).
	deadline := time.Now().Add(5 * time.Second)
	for len(owner.executions()) != 1 || len(thief.executions()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("executions: owner=%d thief=%d, want 1 and 1",
				len(owner.executions()), len(thief.executions()))
		}
		time.Sleep(time.Millisecond)
	}

	st := s.Stats()
	if st.Placed != 2 || st.Hedges != 1 {
		t.Fatalf("stats = %+v, want 2 placed, 1 hedge", st)
	}
}
