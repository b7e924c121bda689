// Package cluster is the distribution layer that scales hmemd from one
// process to a coordinator/worker fleet. It is deliberately small and
// dependency-free (stdlib plus the repo's own exec/obs primitives): a
// worker registry that places shards by rendezvous hashing over its live
// members and checks liveness on every read, a shard descriptor codec, and
// a scheduler that dispatches shards over HTTP with bounded
// retry-on-another-worker and hedging of stragglers.
//
// The correctness contract mirrors the rest of the repository: every shard
// is a pure function of its descriptor, so placement, retries, duplicate
// (hedged) executions, and worker churn can change wall-clock time but
// never bytes. The merge order of shard results is fixed by shard index,
// making cluster output byte-identical to standalone output at any worker
// count.
package cluster

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Worker is one registered cluster member as the coordinator sees it.
type Worker struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Load is the worker's self-reported in-flight shard count from its most
	// recent heartbeat.
	Load int `json:"load"`
	// LastSeen is the time of the last successful heartbeat.
	LastSeen time.Time `json:"last_seen"`
}

// Registry tracks live workers and places shard keys on them. Liveness is
// heartbeat-driven and checked on read: every method first drops the
// workers silent for longer than the TTL, so a dead worker is never a
// placement candidate (its shards are re-placed by the scheduler's retry
// path). Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	ttl     time.Duration
	workers map[string]*Worker

	expiries uint64

	// now is a test seam; nil means time.Now.
	now func() time.Time
}

// DefaultTTL is the heartbeat-miss window after which a worker is declared
// dead. Workers heartbeat every few seconds, so ~3 missed beats.
const DefaultTTL = 10 * time.Second

// NewRegistry returns an empty registry (ttl <= 0 uses DefaultTTL).
func NewRegistry(ttl time.Duration) *Registry {
	return &Registry{ttl: ttl, workers: make(map[string]*Worker)}
}

// TTL returns the heartbeat-miss window this registry enforces.
func (g *Registry) TTL() time.Duration {
	if g.ttl > 0 {
		return g.ttl
	}
	return DefaultTTL
}

func (g *Registry) clock() time.Time {
	if g.now != nil {
		return g.now()
	}
	return time.Now()
}

// expire drops every worker whose last heartbeat is older than the TTL,
// counting each drop as one expiry. Callers hold mu.
func (g *Registry) expire() {
	cutoff := g.clock().Add(-g.TTL())
	for id, w := range g.workers {
		if w.LastSeen.Before(cutoff) {
			delete(g.workers, id)
			g.expiries++
		}
	}
}

// Register adds or refreshes a worker and reports whether it was new. A
// heartbeat from a worker already silent past the TTL re-joins it. A
// re-registration with a changed URL (worker restarted on a new port) keeps
// its keys — the ID is the placement identity.
func (g *Registry) Register(req RegisterRequest) (isNew bool, err error) {
	if err := req.Validate(); err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expire()
	w, ok := g.workers[req.ID]
	if !ok {
		w = &Worker{ID: req.ID}
		g.workers[req.ID] = w
	}
	w.URL = req.URL
	w.Load = req.Load
	w.LastSeen = g.clock()
	return !ok, nil
}

// Deregister removes a worker (graceful drain) and reports whether it was
// present.
func (g *Registry) Deregister(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expire()
	_, ok := g.workers[id]
	delete(g.workers, id)
	return ok
}

// Snapshot returns the live workers sorted by ID.
func (g *Registry) Snapshot() []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expire()
	out := make([]Worker, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the live worker count.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expire()
	return len(g.workers)
}

// Owners returns up to n distinct placement candidates for key, best first,
// by rendezvous (highest-random-weight) hashing: each live worker scores
// sha256(id, key) and the highest scores win, ties broken by ID. The
// ranking is a pure function of the key and the live IDs, so a repeated
// shard lands where the memo already holds it, a join moves keys only to
// the joiner, and a leave moves only the leaver's keys.
func (g *Registry) Owners(key string, n int) []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expire()
	n = min(n, len(g.workers))
	if n <= 0 {
		return nil
	}
	type scored struct {
		w     Worker
		score uint64
	}
	ranked := make([]scored, 0, len(g.workers))
	var buf []byte
	for id, w := range g.workers {
		buf = append(append(append(buf[:0], id...), 0), key...)
		sum := sha256.Sum256(buf)
		ranked = append(ranked, scored{*w, binary.BigEndian.Uint64(sum[:8])})
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.w.ID, b.w.ID))
	})
	out := make([]Worker, n)
	for i := range out {
		out[i] = ranked[i].w
	}
	return out
}

// RegistryStats is a point-in-time snapshot of membership churn, mirrored
// onto /metrics by the service.
type RegistryStats struct {
	Live     int
	Expiries uint64
}

// Stats returns the churn counters.
func (g *Registry) Stats() RegistryStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expire()
	return RegistryStats{Live: len(g.workers), Expiries: g.expiries}
}
