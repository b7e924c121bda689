// Package avf computes the Architectural Vulnerability Factor of memory at
// cache-line granularity and aggregates it per 4 KiB page, following §4.1 of
// the paper: "we perform AVF analysis on memory at a cache line granularity
// because memory reads and writes occur at cache line granularity. We sum the
// AVF of individual cache lines to compose the AVF of a page."
//
// The ACE-interval rules come from Figure 3: the interval between two
// consecutive accesses to a line is ACE (architecturally correct execution —
// a particle strike there becomes a program-visible error) iff the interval
// ends in a read. Write→read and read→read gaps are ACE; read→write and
// write→write gaps are dead (the strike is masked by the overwrite). The
// tail after a line's final access is dead, as is any prefix before its first
// observed access.
//
// Because dynamic schemes move pages between tiers mid-run, every ACE
// interval is charged to the tier passed with the access that closes it —
// the page's tier at that moment — so a page's soft-error exposure splits
// across the tiers it occupied, and an interval spanning a migration is
// charged wholly to the destination tier.
//
// The tracker is keyed by dense page indices (a core.PageTable's, passed
// here as raw uint32 to keep this package import-free), which follow page
// order, and is sized once for the run's table. Its line state is
// proportional to the lines a run touches, not to its page footprint: a run
// typically touches a few of each page's 64 lines. Per page index it keeps a
// touched-line mask, read and write counts, the offset and size class of a
// block holding the page's line timestamps in rank order (line l sits at
// slot popcount(mask & (1<<l - 1))), and a flat row of ACE cycles per tier.
// Blocks live in a chunked arena whose chunks never move; a full block
// doubles (2 up to 64 slots) and per-size free lists reuse the blocks left
// behind. An access to a line already seen is array indexing and a
// popcount: no map operations and no allocations. Tiers are dense small
// integers too — the tracker supports any tier count at no cost to the hot
// path. Page ids reappear only at Snapshot time, when the caller maps each
// index back to its page.
package avf

import (
	"math/bits"
	"strconv"

	"hmem/internal/trace"
)

// Tier identifies one memory tier of the HMA by dense index. The index is
// the position in the run's topology (core.Topology.Tiers); display names
// come from the topology, with the two paper tiers below as the default.
type Tier uint8

// The two tiers of the paper's default configuration.
const (
	TierDDR Tier = iota // off-package, high-reliability (ChipKill)
	TierHBM             // on-package, high-bandwidth, low-reliability (SEC-DED)
)

// String returns the tier's name: the paper's names for the default pair,
// and a stable "tier<N>" for any other index (topology-aware callers should
// prefer the topology's display names).
func (t Tier) String() string {
	switch t {
	case TierDDR:
		return "DDR"
	case TierHBM:
		return "HBM"
	default:
		return "tier" + strconv.Itoa(int(t))
	}
}

// pageLines is one page's access counts and the location of its line
// timestamps: everything an access reads or writes but the timestamp and
// the ACE total, in one cache line. A page with touched == 0 has no block.
type pageLines struct {
	touched       uint64 // bit l set once line l has been accessed
	reads, writes uint64
	off           uint32 // arena slot of the block's first timestamp
	class         uint8  // the block holds 2<<class timestamps
}

// The arena grows one chunk at a time and chunks never move. A block never
// straddles two chunks, so its slots are one slice of one chunk.
const (
	chunkShift = 14
	chunkSlots = 1 << chunkShift
	maxClass   = 5 // 2<<5 == trace.LinesPerPage
)

// Tracker accumulates ACE time for every page index it observes. The zero
// value is not usable; construct with NewTracker.
// Not safe for concurrent use.
type Tracker struct {
	tiers    int
	pages    []pageLines
	ace      []int64 // ACE cycles, page-major: page i's row is ace[i*tiers : (i+1)*tiers]
	observed int     // pages with at least one access

	chunks [][]int64              // the arena; slot s is chunks[s>>chunkShift][s&(chunkSlots-1)]
	next   uint32                 // first unused arena slot
	free   [maxClass + 1][]uint32 // released blocks by size class
}

// NewTracker returns an empty tracker over tiers memory tiers for the page
// indices below pages.
func NewTracker(tiers, pages int) *Tracker {
	if tiers < 1 || tiers > 256 {
		panic("avf: tier count out of range")
	}
	return &Tracker{tiers: tiers, pages: make([]pageLines, pages), ace: make([]int64, pages*tiers)}
}

// block returns the slots of a block of class c at arena offset off.
func (t *Tracker) block(off uint32, c uint8) []int64 {
	lo := off & (chunkSlots - 1)
	return t.chunks[off>>chunkShift][lo : lo+2<<c : lo+2<<c]
}

// alloc returns the arena offset of a free block of class c, reusing a
// released one when it can.
func (t *Tracker) alloc(c uint8) uint32 {
	if fl := t.free[c]; len(fl) > 0 {
		t.free[c] = fl[:len(fl)-1]
		return fl[len(fl)-1]
	}
	size := uint32(2) << c
	if end := uint32(len(t.chunks)) << chunkShift; t.next+size > end {
		// The block does not fit in the last chunk: the chunk's tail stays
		// unused and the block starts a new one.
		t.next = end
		t.chunks = append(t.chunks, make([]int64, chunkSlots))
	}
	off := t.next
	t.next += size
	return off
}

// Access records an access to line lineInPage (0..63) of the page at dense
// index pi, at cycle `at`, residing in tier. An ACE interval is
// charged to the tier of the access that closes it. Accesses to a line
// arrive in nearly non-decreasing time order; a timestamp earlier than the
// line's last access is treated as concurrent with it (clamped to a
// zero-length interval), because the simulator's per-core clocks can skew
// by one record's gap plus stalls between picking a core and recording its
// access, and the ordering of two cores' accesses within that skew is
// arbitrary.
func (t *Tracker) Access(pi uint32, lineInPage int, at int64, write bool, tier Tier) {
	if lineInPage < 0 || lineInPage >= trace.LinesPerPage {
		panic("avf: line index out of page")
	}
	if int(tier) >= t.tiers {
		panic("avf: tier out of range for tracker")
	}
	i := int(pi)
	pl := &t.pages[i]
	bit := uint64(1) << uint(lineInPage)
	rank := bits.OnesCount64(pl.touched & (bit - 1))
	if pl.touched&bit != 0 {
		slot := &t.chunks[pl.off>>chunkShift][pl.off&(chunkSlots-1)+uint32(rank)]
		last := *slot
		if at < last {
			at = last
		}
		if !write {
			// Interval ends in a read: ACE.
			t.ace[i*t.tiers+int(tier)] += at - last
		}
		*slot = at
	} else {
		t.insert(pl, rank, at)
		pl.touched |= bit
	}
	if write {
		pl.writes++
	} else {
		pl.reads++
	}
}

// insert opens a line's first timestamp at rank in the page's block,
// allocating or doubling the block when it has no free slot.
func (t *Tracker) insert(pl *pageLines, rank int, at int64) {
	n := bits.OnesCount64(pl.touched)
	if n == 0 {
		t.observed++
		pl.class = 0
		pl.off = t.alloc(0)
	} else if n == 2<<pl.class {
		old := t.block(pl.off, pl.class)
		t.free[pl.class] = append(t.free[pl.class], pl.off)
		pl.class++
		pl.off = t.alloc(pl.class)
		copy(t.block(pl.off, pl.class), old)
	}
	blk := t.block(pl.off, pl.class)
	copy(blk[rank+1:n+1], blk[rank:n])
	blk[rank] = at
}

// PageAVF describes one page's vulnerability over a run of totalCycles.
type PageAVF struct {
	Page   uint64
	AVF    float64   // whole-page AVF in [0,1]
	ByTier []float64 // tier-attributed AVF shares (by tier index); sum == AVF
	Reads  uint64
	Writes uint64
}

// Snapshot returns the per-page AVF over a run that lasted totalCycles,
// ordered by page id (a deterministic order keeps downstream floating-point
// aggregation bit-reproducible: per-page tier shares accumulate in ascending
// tier index). id maps a dense index to its page id and must ascend with the
// index, as core.PageTable.ID does; indices the tracker never saw an access
// for are skipped. totalCycles must be positive.
func (t *Tracker) Snapshot(totalCycles int64, id func(index uint32) uint64) []PageAVF {
	if totalCycles <= 0 {
		panic("avf: Snapshot with non-positive duration")
	}
	denom := float64(trace.LinesPerPage) * float64(totalCycles)
	tiers := t.tiers
	out := make([]PageAVF, 0, t.observed)
	// One backing array for every page's ByTier keeps the snapshot to O(1)
	// allocations instead of one per page.
	shares := make([]float64, t.observed*tiers)
	for i := range t.pages {
		pl := &t.pages[i]
		if pl.touched == 0 {
			continue
		}
		p := PageAVF{Page: id(uint32(i)), Reads: pl.reads, Writes: pl.writes}
		p.ByTier, shares = shares[:tiers:tiers], shares[tiers:]
		for tier := 0; tier < tiers; tier++ {
			p.ByTier[tier] = float64(t.ace[i*tiers+tier]) / denom
			p.AVF += p.ByTier[tier]
		}
		out = append(out, p)
	}
	return out
}

// PageCount returns the number of distinct pages observed.
func (t *Tracker) PageCount() int { return t.observed }
