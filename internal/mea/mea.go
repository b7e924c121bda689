// Package mea implements the Majority Element Algorithm (Misra-Gries
// frequent-elements summary [6,33]) used by MemPod [50] and by this paper's
// Cross Counter mechanism (§6.4) as the low-cost hotness tracker: a fixed
// set of counters tracks the most frequently touched pages of the current
// interval with strong theoretical guarantees and O(k) state, in contrast to
// a full counter per addressable page.
//
// The tracker is keyed by dense page indices (a core.PageTable's, passed as
// raw uint32 to keep this package leaf-level). The k entries live in two
// flat arrays and a reverse slot array, sized once for the run's table and
// indexed by page index, answers "is this page tracked?" in one load — the
// per-access path performs no map operations and no allocations.
package mea

// noSlot marks a page index with no MEA entry.
const noSlot = int32(-1)

// Tracker is a k-counter Misra-Gries summary over dense page indices. The
// zero value is unusable; construct with New. Not safe for concurrent use.
type Tracker struct {
	k        int
	idx      []uint32 // entry -> dense page index (first n in use)
	cnt      []uint64 // entry -> residual count
	n        int      // entries in use, <= k
	slot     []int32  // dense page index -> entry position, noSlot if absent
	observed uint64
}

// New returns a tracker with k counters (MemPod and the paper use 32) for
// the page indices below pages. It panics if k <= 0.
func New(k, pages int) *Tracker {
	if k <= 0 {
		panic("mea: k must be positive")
	}
	t := &Tracker{
		k:    k,
		idx:  make([]uint32, k),
		cnt:  make([]uint64, k),
		slot: make([]int32, pages),
	}
	for i := range t.slot {
		t.slot[i] = noSlot
	}
	return t
}

// K returns the counter budget.
func (t *Tracker) K() int { return t.k }

// Observed returns the number of observations in the current interval.
func (t *Tracker) Observed() uint64 { return t.observed }

// Observe feeds one access to the page at dense index pi. Classic
// Misra-Gries update: increment a tracked entry, adopt the page if a counter
// is free, otherwise decrement every counter (evicting zeros).
func (t *Tracker) Observe(pi uint32) {
	t.observed++
	if s := t.slot[pi]; s != noSlot {
		t.cnt[s]++
		return
	}
	if t.n < t.k {
		t.idx[t.n] = pi
		t.cnt[t.n] = 1
		t.slot[pi] = int32(t.n)
		t.n++
		return
	}
	// Decrement-all: compact survivors in place, freeing zeroed entries.
	w := 0
	for r := 0; r < t.n; r++ {
		if t.cnt[r] <= 1 {
			t.slot[t.idx[r]] = noSlot
			continue
		}
		t.idx[w] = t.idx[r]
		t.cnt[w] = t.cnt[r] - 1
		t.slot[t.idx[w]] = int32(w)
		w++
	}
	t.n = w
}

// Entry is one tracked page with its residual counter.
type Entry struct {
	Index uint32 // dense page index
	Count uint64
}

// Hot appends the tracked entries to dst and returns it. Entries come out
// in internal (insertion) order: callers that need a deterministic ranking
// resolve indices to page ids and sort by (count desc, page id asc) — see
// migration.CrossCounter.
func (t *Tracker) Hot(dst []Entry) []Entry {
	for e := 0; e < t.n; e++ {
		dst = append(dst, Entry{Index: t.idx[e], Count: t.cnt[e]})
	}
	return dst
}

// Reset clears the summary for the next MEA interval without allocating.
func (t *Tracker) Reset() {
	for e := 0; e < t.n; e++ {
		t.slot[t.idx[e]] = noSlot
	}
	t.n = 0
	t.observed = 0
}

// Len returns the number of entries currently tracked.
func (t *Tracker) Len() int { return t.n }

// CostBytes returns the hardware cost of a k-entry MEA unit with the given
// counter width in bits plus a page-id tag (52 bits for 4 KiB pages in a
// 64-bit space), rounded up per entry.
func CostBytes(k, counterBits int) int {
	const tagBits = 52
	perEntry := (counterBits + tagBits + 7) / 8
	return k * perEntry
}
