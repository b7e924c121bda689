package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// registryOf returns a registry holding the given worker IDs.
func registryOf(t testing.TB, ids ...string) *Registry {
	g := NewRegistry(time.Hour)
	for _, id := range ids {
		if _, err := g.Register(RegisterRequest{ID: id, URL: "http://" + id}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// owner returns key's first placement candidate, or "" with no live worker.
func owner(g *Registry, key string) string {
	if ws := g.Owners(key, 1); len(ws) > 0 {
		return ws[0].ID
	}
	return ""
}

// TestOwnersDistributionBalance: for 3-16 workers, hashing a large key
// population must load every worker within a reasonable factor of fair
// share — the property that makes rendezvous hashing usable as a placement
// policy at the cluster sizes this repo targets.
func TestOwnersDistributionBalance(t *testing.T) {
	const keys = 20000
	for workers := 3; workers <= 16; workers++ {
		g := registryOf(t)
		for i := 0; i < workers; i++ {
			g.Register(RegisterRequest{ID: fmt.Sprintf("worker-%d", i), URL: "http://w"})
		}
		counts := make(map[string]int)
		for k := 0; k < keys; k++ {
			o := owner(g, fmt.Sprintf("shard-key-%d", k))
			if o == "" {
				t.Fatalf("workers=%d: no owner for key %d", workers, k)
			}
			counts[o]++
		}
		if len(counts) != workers {
			t.Errorf("workers=%d: only %d workers ever own a key", workers, len(counts))
		}
		fair := float64(keys) / float64(workers)
		for w, c := range counts {
			ratio := float64(c) / fair
			// Each key's owner is an independent uniform draw, so the spread
			// is binomial and stays well below 2x; the assertion leaves
			// slack so the test pins the property, not the hash function's
			// exact spread.
			if ratio < 0.5 || ratio > 1.75 {
				t.Errorf("workers=%d: %s owns %d keys (%.2fx fair share)", workers, w, c, ratio)
			}
		}
	}
}

// TestOwnersMinimalReshuffleOnJoinLeave (testing/quick): adding one worker
// to an n-worker registry may only move keys TO the new worker (never
// shuffle keys between existing ones), and removing it must restore the
// original placement exactly. The moved fraction must be near 1/(n+1).
func TestOwnersMinimalReshuffleOnJoinLeave(t *testing.T) {
	const keys = 4000
	prop := func(seed uint16, nWorkers uint8) bool {
		n := 3 + int(nWorkers)%14 // 3..16
		g := registryOf(t)
		for i := 0; i < n; i++ {
			g.Register(RegisterRequest{ID: fmt.Sprintf("w%d-%d", seed, i), URL: "http://w"})
		}
		before := make([]string, keys)
		for k := range before {
			before[k] = owner(g, fmt.Sprintf("key-%d-%d", seed, k))
		}
		joined := fmt.Sprintf("w%d-new", seed)
		g.Register(RegisterRequest{ID: joined, URL: "http://w"})
		moved := 0
		for k := range before {
			now := owner(g, fmt.Sprintf("key-%d-%d", seed, k))
			if now != before[k] {
				if now != joined {
					t.Logf("key %d moved between pre-existing workers: %s -> %s", k, before[k], now)
					return false
				}
				moved++
			}
		}
		frac := float64(moved) / float64(keys)
		want := 1.0 / float64(n+1)
		if math.Abs(frac-want) > 0.6*want+0.02 {
			t.Logf("n=%d: moved fraction %.3f, want ~%.3f", n, frac, want)
			return false
		}
		g.Deregister(joined)
		for k := range before {
			if now := owner(g, fmt.Sprintf("key-%d-%d", seed, k)); now != before[k] {
				t.Logf("key %d not restored after leave: %s != %s", k, now, before[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestOwnersDeterministicAcrossRegistrationOrder: placement is a pure
// function of the live IDs — it cannot depend on the order workers
// happened to register (a restarted coordinator re-learning its fleet), nor
// on a worker's URL (a worker restarted on a new port).
func TestOwnersDeterministicAcrossRegistrationOrder(t *testing.T) {
	a := registryOf(t, "w1", "w2", "w3", "w4")
	b := registryOf(t, "w4", "w2", "w1", "w3")
	b.Register(RegisterRequest{ID: "w2", URL: "http://w2-restarted:9"})
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("key-%d", k)
		oa, ob := a.Owners(key, 4), b.Owners(key, 4)
		for i := range oa {
			if oa[i].ID != ob[i].ID {
				t.Fatalf("key %q: candidate %d is %s vs %s depending on registration order",
					key, i, oa[i].ID, ob[i].ID)
			}
		}
	}
}

// TestOwnersDistinctAndCapped: the candidates are distinct workers, owner
// first, capped at membership, and nil once no worker is live.
func TestOwnersDistinctAndCapped(t *testing.T) {
	g := registryOf(t)
	if got := g.Owners("k", 3); got != nil {
		t.Errorf("empty registry Owners = %v, want nil", got)
	}
	g = registryOf(t, "a", "b", "c")
	owners := g.Owners("some-key", 5)
	if len(owners) != 3 {
		t.Fatalf("Owners cap: got %d, want 3", len(owners))
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o.ID] {
			t.Errorf("duplicate owner %s", o.ID)
		}
		seen[o.ID] = true
	}
	if first := owner(g, "some-key"); first != owners[0].ID {
		t.Errorf("owner = %s, want %s", first, owners[0].ID)
	}
	g.Deregister("a")
	g.Deregister("b")
	g.Deregister("c")
	if g.Len() != 0 {
		t.Errorf("Len after removing all = %d", g.Len())
	}
	if got := g.Owners("some-key", 1); got != nil {
		t.Errorf("Owners on emptied registry = %v, want nil", got)
	}
}

// BenchmarkRegistryOwners ranks a 16-worker fleet for one key with the
// scheduler's candidate count.
func BenchmarkRegistryOwners(b *testing.B) {
	g := registryOf(b)
	for i := 0; i < 16; i++ {
		g.Register(RegisterRequest{ID: fmt.Sprintf("worker-%d", i), URL: "http://w"})
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("shard-key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Owners(keys[i%len(keys)], maxAttempts)
	}
}
