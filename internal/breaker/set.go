package breaker

import "sync"

// Set is a keyed family of breakers sharing one clock — the cluster
// scheduler holds one per worker ID, the service mirrors their states onto
// /metrics. Members are created on first use and never removed: a departed
// worker's breaker is a few hundred bytes, and keeping it means a flapping
// worker that re-registers inherits its quarantine instead of a clean slate.
type Set struct {
	// Config is every member's Config; Set.OnTransition replaces its
	// OnTransition.
	Config Config
	// OnTransition, when set, observes every member's state changes with the
	// member key attached (metrics, spans, logs). Called outside locks.
	OnTransition func(key string, from, to State)

	mu sync.Mutex
	m  map[string]*Breaker
}

// Get returns the breaker for key, creating it (Closed) on first use.
func (s *Set) Get(key string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[key]; ok {
		return b
	}
	if s.m == nil {
		s.m = make(map[string]*Breaker)
	}
	cfg := s.Config
	if s.OnTransition != nil {
		fire := s.OnTransition
		cfg.OnTransition = func(from, to State) { fire(key, from, to) }
	}
	b := New(cfg)
	s.m[key] = b
	return b
}

// States snapshots every member's state, keyed by member key.
func (s *Set) States() map[string]State {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]State, len(s.m))
	for k, b := range s.m {
		out[k] = b.State()
	}
	return out
}

// Totals sums opens and closes across every member.
func (s *Set) Totals() (opens, closes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.m {
		st := b.Stats()
		opens += st.Opens
		closes += st.Closes
	}
	return opens, closes
}
