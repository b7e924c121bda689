package sim

import (
	"math"
	"testing"

	"hmem/internal/xrand"
)

// scanMin is the linear scan coreQueue replaces: the first active core with
// the smallest clock.
func scanMin(cores []*coreState) int {
	best := -1
	for i, c := range cores {
		if !c.done && (best < 0 || c.time < cores[best].time) {
			best = i
		}
	}
	return best
}

// TestCoreQueueMatchesScan: over random sequences of clock advances (with
// frequent ties), finished cores and all-core stalls, the loser tree picks
// the same core as the linear scan.
func TestCoreQueueMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 17} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := xrand.New(seed)
			cores := make([]*coreState, n)
			for i := range cores {
				cores[i] = &coreState{}
			}
			q := newCoreQueue(n)
			active := n
			for step := 0; active > 0; step++ {
				ci := q.min()
				if want := scanMin(cores); ci != want {
					t.Fatalf("n=%d seed=%d step %d: queue picks core %d, scan picks %d", n, seed, step, ci, want)
				}
				c := cores[ci]
				switch r := rng.Intn(100); {
				case r < 2:
					c.done = true
					active--
					q.update(math.MaxInt64)
				case r < 5:
					// An all-core stall, as applyMigration imposes.
					var latest int64
					for _, o := range cores {
						if !o.done && o.time > latest {
							latest = o.time
						}
					}
					resume := latest + int64(rng.Intn(50))
					for _, o := range cores {
						if !o.done && o.time < resume {
							o.time = resume
						}
					}
					q.reset(cores)
				default:
					c.time += int64(rng.Intn(4))
					q.update(c.time)
				}
			}
		}
	}
}
