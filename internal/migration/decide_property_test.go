package migration

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"hmem/internal/sim"
	"hmem/internal/trace"
)

// disjointRecorder wraps a migrator and checks, at every Decide, the
// structural properties all mechanisms must uphold: the in and out sets are
// each duplicate-free and mutually disjoint (a page cannot move both ways
// in one decision), in-pages are not already HBM residents, and out-pages
// are not pinned.
type disjointRecorder struct {
	decisionRecorder
	err error
}

func (r *disjointRecorder) Decide(now int64, placement *sim.Placement) (in, out []uint64) {
	in, out = r.decisionRecorder.Decide(now, placement)
	if r.err != nil {
		return in, out
	}
	seen := make(map[uint64]int, len(in)+len(out))
	for _, p := range in {
		if seen[p]&1 != 0 {
			r.err = fmt.Errorf("%s: page %d duplicated in the in set %v", r.Name(), p, in)
			return in, out
		}
		seen[p] |= 1
		if placement.InHBM(p) {
			r.err = fmt.Errorf("%s: in-page %d is already an HBM resident", r.Name(), p)
			return in, out
		}
	}
	for _, p := range out {
		if seen[p]&2 != 0 {
			r.err = fmt.Errorf("%s: page %d duplicated in the out set %v", r.Name(), p, out)
			return in, out
		}
		seen[p] |= 2
		if seen[p]&1 != 0 {
			r.err = fmt.Errorf("%s: page %d in both in=%v and out=%v", r.Name(), p, in, out)
			return in, out
		}
		if placement.Pinned(p) {
			r.err = fmt.Errorf("%s: out-page %d is pinned", r.Name(), p)
			return in, out
		}
	}
	return in, out
}

// decideProperty runs every mechanism over one random trace and returns the
// first violated decision invariant.
func decideProperty(seed uint64) error {
	recs := diffTrace(seed, 2, 3000)
	migs := []sim.Migrator{
		NewPerf(15000),
		NewFullCounter(15000),
		NewCrossCounter(4000, 3, 8),
	}
	for _, m := range migs {
		rec := &disjointRecorder{decisionRecorder: decisionRecorder{m: m}}
		cfg := sim.Config{
			Topology:       twoTierTopo(64, 4096),
			IssueWidth:     4,
			MaxOutstanding: 8,
		}
		streams := make([]trace.Stream, len(recs))
		for i, r := range recs {
			streams[i] = trace.NewSliceStream(r)
		}
		if _, err := sim.Run(cfg, streams, []uint64{0, 1}, true, rec); err != nil {
			return fmt.Errorf("%s: sim.Run: %w", m.Name(), err)
		}
		if rec.err != nil {
			return rec.err
		}
		if len(rec.decisions) == 0 {
			return fmt.Errorf("%s: trace produced no decisions (vacuous run)", m.Name())
		}
	}
	return nil
}

// TestDecideInOutDisjointProperty checks the decision invariants with
// testing/quick serially, then re-runs the property from NumCPU goroutines
// so `go test -race` catches any shared state between migrator instances.
func TestDecideInOutDisjointProperty(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		f := func(seed uint64) bool {
			if err := decideProperty(seed); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		workers := runtime.NumCPU()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seed := uint64(w*50 + 1); seed <= uint64(w*50+3); seed++ {
					if err := decideProperty(seed); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
