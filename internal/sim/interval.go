package sim

import "hmem/internal/core"

// intervalState accumulates one measurement interval's activity and derives
// the IntervalSample at each boundary. State is dense over the run's page
// indices: per-access work is two array writes (epoch-stamped counts plus a
// touched list), with no map operations and no steady-state allocations.
// The previous interval's hot set is an epoch-stamped array too, so the
// churn computation allocates nothing per boundary.
type intervalState struct {
	counts  []uint32 // per-index access count, valid iff mark matches
	mark    []uint64
	epoch   uint64
	touched []core.PageIndex
	reads   uint64
	writes  uint64
	hbmHits uint64
	// hotMark[i] == hotEpoch marks membership in the previous interval's
	// hot set; prevHotLen is that set's size.
	hotMark    []uint64
	hotEpoch   uint64
	prevHotLen int
}

func newIntervalState(pages int) *intervalState {
	return &intervalState{
		counts:   make([]uint32, pages),
		mark:     make([]uint64, pages),
		hotMark:  make([]uint64, pages),
		epoch:    1,
		hotEpoch: 1,
	}
}

// observe records one access to the page at pi.
func (iv *intervalState) observe(pi core.PageIndex, write, inHBM bool) {
	i := int(pi)
	if iv.mark[i] != iv.epoch {
		iv.mark[i] = iv.epoch
		iv.counts[i] = 0
		iv.touched = append(iv.touched, pi)
	}
	iv.counts[i]++
	if write {
		iv.writes++
	} else {
		iv.reads++
	}
	if inHBM {
		iv.hbmHits++
	}
}

// sample closes the interval at endCycle and resets the accumulators.
func (iv *intervalState) sample(endCycle int64, moved int) IntervalSample {
	s := IntervalSample{
		EndCycle:     endCycle,
		Reads:        iv.reads,
		Writes:       iv.writes,
		PagesMoved:   moved,
		TouchedPages: len(iv.touched),
	}
	if total := iv.reads + iv.writes; total > 0 {
		s.HBMFraction = float64(iv.hbmHits) / float64(total)
	}

	// Hot set: pages above the interval's mean access count (the same
	// threshold the §6.1 migration mechanism uses).
	var sum uint64
	for _, pi := range iv.touched {
		sum += uint64(iv.counts[pi])
	}
	hotLen := 0
	fresh := 0
	nextHotEpoch := iv.hotEpoch + 1
	if len(iv.touched) > 0 {
		mean := float64(sum) / float64(len(iv.touched))
		for _, pi := range iv.touched {
			if float64(iv.counts[pi]) > mean {
				hotLen++
				if iv.hotMark[pi] != iv.hotEpoch {
					fresh++
				}
				iv.hotMark[pi] = nextHotEpoch
			}
		}
	}
	if hotLen > 0 && iv.prevHotLen > 0 {
		s.HotSetChurn = float64(fresh) / float64(hotLen)
	}

	iv.hotEpoch = nextHotEpoch
	iv.prevHotLen = hotLen
	iv.epoch++
	iv.touched = iv.touched[:0]
	iv.reads, iv.writes, iv.hbmHits = 0, 0, 0
	return s
}
