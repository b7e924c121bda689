package core

import (
	"cmp"
	"slices"
)

// Hardware activity counters (§6.1-§6.4). The paper's mechanisms are
// modeled bit-faithfully: 8-bit saturating read/write counters per page for
// the Full Counter mechanism, 16-bit risk counters for the Cross Counter
// mechanism's HBM-resident reliability unit. The same constants drive the
// §6.3/§6.4.2 hardware-cost table.
//
// The tracker is keyed by dense PageIndex (see PageTable) and stores its
// state in flat slices: one bounds check and two array writes per access,
// no map operations and no allocations in steady state. Interval resets
// are O(touched) via an epoch stamp — entries are lazily zeroed on first
// touch of the next interval instead of eagerly cleared or reallocated.

// FullCounters tracks reads and writes per page — the §6.2 FC mechanism.
// The backing store is dense over interned page indices (only touched pages
// ever get an index), but the hardware cost is computed from the architected
// page count. The zero value is unusable; construct with NewFullCounters.
type FullCounters struct {
	max     uint32 // saturation value, 2^bits - 1
	reads   []uint32
	writes  []uint32
	mark    []uint64 // epoch stamp: entry is live iff mark[i] == epoch
	epoch   uint64
	touched []PageIndex // indices observed this interval, first-touch order
	order   []pageKey   // Snapshot's scratch: touched, sorted by page id
}

// NewFullCounters builds the tracker with the given counter width (the
// paper sizes 8-bit counters after observing 6 bits suffice).
func NewFullCounters(bits int) *FullCounters {
	if bits <= 0 || bits > 32 {
		panic("core: counter width must be 1..32 bits")
	}
	return &FullCounters{max: 1<<uint(bits) - 1, epoch: 1}
}

// Observe records one access to the page interned at pi.
func (f *FullCounters) Observe(pi PageIndex, write bool) {
	i := int(pi)
	if i >= len(f.mark) {
		f.ensure(i + 1)
	}
	if f.mark[i] != f.epoch {
		f.mark[i] = f.epoch
		f.reads[i], f.writes[i] = 0, 0
		f.touched = append(f.touched, pi)
	}
	if write {
		if f.writes[i] < f.max {
			f.writes[i]++
		}
	} else {
		if f.reads[i] < f.max {
			f.reads[i]++
		}
	}
}

// ensure grows the backing arrays to hold at least n entries. Growth is
// amortized doubling so a run allocates O(log footprint) times total.
func (f *FullCounters) ensure(n int) {
	cap := len(f.mark) * 2
	if cap < n {
		cap = n
	}
	if cap < 64 {
		cap = 64
	}
	reads := make([]uint32, cap)
	writes := make([]uint32, cap)
	mark := make([]uint64, cap)
	copy(reads, f.reads)
	copy(writes, f.writes)
	copy(mark, f.mark)
	f.reads, f.writes, f.mark = reads, writes, mark
}

// Snapshot exports the interval's counters as PageStats (AVF unknown: the
// runtime mechanism estimates risk via WrRatio instead). pt must be the
// table that issued the indices fed to Observe; the result is ordered by
// page id for deterministic downstream aggregation. It sorts (id, index)
// pairs, not the stats, and fills each page's stats once in that order.
func (f *FullCounters) Snapshot(pt *PageTable) []PageStats {
	ids := pt.IDs()
	order := f.order[:0]
	for _, pi := range f.touched {
		order = append(order, pageKey{ids[pi], pi})
	}
	slices.SortFunc(order, func(a, b pageKey) int { return cmp.Compare(a.id, b.id) })
	out := make([]PageStats, len(order))
	for k, o := range order {
		out[k] = PageStats{Page: o.id, Reads: uint64(f.reads[o.pi]), Writes: uint64(f.writes[o.pi])}
	}
	f.order = order
	return out
}

// pageKey is one Snapshot sort entry: a touched page's id and index.
type pageKey struct {
	id uint64
	pi PageIndex
}

// Counts returns the interval's read and write counts of the page interned
// at pi, and whether it was observed this interval (zero counts if not).
func (f *FullCounters) Counts(pi PageIndex) (reads, writes uint64, touched bool) {
	i := int(pi)
	if i >= len(f.mark) || f.mark[i] != f.epoch {
		return 0, 0, false
	}
	return uint64(f.reads[i]), uint64(f.writes[i]), true
}

// Reset clears all counters for the next interval. It is O(1) and performs
// no allocation: the touched list is truncated in place and stale entries
// are invalidated by bumping the epoch stamp.
func (f *FullCounters) Reset() {
	f.epoch++
	f.touched = f.touched[:0]
}

// TouchedPages returns how many distinct pages were observed this interval.
func (f *FullCounters) TouchedPages() int { return len(f.touched) }

// ---- Hardware cost (§6.3, §6.4.2) ------------------------------------------

// FCCostBytes returns the storage for the FC mechanism: two 8-bit counters
// (16 bits) per architected page. For the paper's 17 GB HMA (4.25 M pages)
// this is 8.5 MB, of which 4.25 MB is the *additional* cost over a
// performance-only design that needs just one counter per page.
func FCCostBytes(totalPages int) int { return totalPages * 2 }

// FCAdditionalCostBytes is the extra storage versus a perf-only tracker.
func FCAdditionalCostBytes(totalPages int) int { return totalPages }

// CCCostBytes returns the Cross Counter mechanism's storage: 16-bit risk
// counters for HBM pages only, plus the MEA unit (~100 KB) and its 64 KB
// remap-table cache (§6.4.2: 512 KB + 100 KB + 64 KB = 676 KB for 262K HBM
// pages).
func CCCostBytes(hbmPages int) int {
	const meaUnit = 100 * 1024
	const remapCache = 64 * 1024
	return hbmPages*2 + meaUnit + remapCache
}
