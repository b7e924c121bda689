package cluster

import (
	"sort"
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

// Registry tracks live workers and keeps the placement ring in sync with
// membership. Liveness is heartbeat-driven: a worker that misses heartbeats
// for longer than the TTL is expired (and its shards re-placed by the
// scheduler's retry path). Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	ttl     time.Duration
	workers map[string]*Worker
	ring    *Ring

	expiries uint64

	// now is a test seam; nil means time.Now.
	now func() time.Time
}

// DefaultTTL is the heartbeat-miss window after which a worker is declared
// dead. Workers heartbeat every few seconds, so ~3 missed beats.
const DefaultTTL = 10 * time.Second

// NewRegistry returns an empty registry (ttl <= 0 uses DefaultTTL).
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Registry{
		ttl:     ttl,
		workers: make(map[string]*Worker),
		ring:    NewRing(0),
	}
}

func (g *Registry) clock() time.Time {
	if g.now != nil {
		return g.now()
	}
	return time.Now()
}

// Register adds or refreshes a worker and reports whether it was new. A
// re-registration with a changed URL (worker restarted on a new port) keeps
// its ring position — the ID is the placement identity.
func (g *Registry) Register(req RegisterRequest) (isNew bool, err error) {
	if err := req.Validate(); err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[req.ID]
	if !ok {
		w = &Worker{ID: req.ID}
		g.workers[req.ID] = w
		g.ring.Add(req.ID)
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
	if _, ok := g.workers[id]; !ok {
		return false
	}
	delete(g.workers, id)
	g.ring.Remove(id)
	return true
}

// Expire removes every worker whose last heartbeat is older than the TTL and
// returns the removed set (sorted by ID).
func (g *Registry) Expire() []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	cutoff := g.clock().Add(-g.ttl)
	var dead []Worker
	for id, w := range g.workers {
		if w.LastSeen.Before(cutoff) {
			dead = append(dead, *w)
			delete(g.workers, id)
			g.ring.Remove(id)
			g.expiries++
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].ID < dead[j].ID })
	return dead
}

// Snapshot returns the live workers sorted by ID.
func (g *Registry) Snapshot() []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
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
	return len(g.workers)
}

// Owners returns up to n distinct placement candidates for key: the ring
// owner first, then failover candidates clockwise.
func (g *Registry) Owners(key string, n int) []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := g.ring.Owners(key, n)
	out := make([]Worker, 0, len(ids))
	for _, id := range ids {
		if w, ok := g.workers[id]; ok {
			out = append(out, *w)
		}
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
	return RegistryStats{
		Live:     len(g.workers),
		Expiries: g.expiries,
	}
}
