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
// interval is attributed to the tier the page occupied when the interval
// started, splitting a page's soft-error exposure across tiers.
//
// The tracker is keyed by dense page indices (core.PageTable interning —
// passed here as raw uint32 to keep this package import-free) and stores
// per-page state in fixed-size chunks of flat arrays: the per-access path is
// array indexing, no map operations, and no allocations once the footprint
// has been seen, and growth never copies. Tiers are dense small integers
// too — the tracker supports any tier count (NewTrackerN) with per-tier ACE
// totals in flat tier-major arrays per chunk, so the N-tier generalization
// costs the hot path nothing. Page ids reappear only at Snapshot time, when
// the caller provides the dense index→id mapping.
package avf

import (
	"sort"
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
	numTiers
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

type pageState struct {
	lastAccess [trace.LinesPerPage]int64
	// lineTier records, per line, the tier the page was in at the line's
	// last access — the tier an interval ending at the next access to that
	// line is charged to.
	lineTier [trace.LinesPerPage]uint8
	// touched marks lines that have been accessed at least once.
	touched uint64
	// reads/writes give per-page access counts for cross-checks.
	reads, writes uint64
}

// chunkPages is the tracker's unit of growth. State grows one chunk at a
// time and chunks never move, so covering a new index copies nothing.
const (
	chunkShift = 8
	chunkPages = 1 << chunkShift
)

// chunk holds the state of chunkPages consecutive page indices.
type chunk struct {
	pages [chunkPages]pageState
	// ace accumulates ACE cycles, tier-major: ace[tier*chunkPages+j] for
	// the chunk's page j, so charging an interval is one array index
	// regardless of tier count.
	ace []int64
}

// Tracker accumulates ACE time for every page index it observes. The zero
// value is not usable; construct with NewTracker (two tiers) or NewTrackerN.
// Not safe for concurrent use.
type Tracker struct {
	chunks   []*chunk // chunk c covers indices [c*chunkPages, (c+1)*chunkPages)
	tiers    int
	observed int // entries with at least one access
}

// NewTracker returns an empty tracker over the paper's two tiers.
func NewTracker() *Tracker {
	return NewTrackerN(int(numTiers))
}

// NewTrackerN returns an empty tracker over tiers memory tiers.
func NewTrackerN(tiers int) *Tracker {
	if tiers < 1 || tiers > 256 {
		panic("avf: tier count out of range")
	}
	return &Tracker{tiers: tiers}
}

// NumTiers returns the tracker's tier count.
func (t *Tracker) NumTiers() int { return t.tiers }

// grow adds chunks until index i is covered.
func (t *Tracker) grow(i int) {
	for len(t.chunks) <= i>>chunkShift {
		t.chunks = append(t.chunks, &chunk{ace: make([]int64, t.tiers*chunkPages)})
	}
}

// Access records an access to line lineInPage (0..63) of the page interned
// at dense index pi, at cycle `at`, residing in tier. Accesses to a line
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
	if i>>chunkShift >= len(t.chunks) {
		t.grow(i)
	}
	c := t.chunks[i>>chunkShift]
	j := i & (chunkPages - 1)
	ps := &c.pages[j]
	if ps.touched == 0 && ps.reads == 0 && ps.writes == 0 {
		t.observed++
	}
	bit := uint64(1) << uint(lineInPage)
	if ps.touched&bit != 0 {
		last := ps.lastAccess[lineInPage]
		if at < last {
			at = last
		}
		if !write {
			// Interval ends in a read: ACE, charged to the tier the page
			// occupied when the interval started.
			c.ace[int(ps.lineTier[lineInPage])*chunkPages+j] += at - last
		}
	}
	ps.lastAccess[lineInPage] = at
	ps.lineTier[lineInPage] = uint8(tier)
	ps.touched |= bit
	if write {
		ps.writes++
	} else {
		ps.reads++
	}
}

// MigratePage re-tags a page's open intervals to a new tier. An ACE interval
// that spans the migration is charged wholly to the destination tier: at
// migration time the interval's outcome (read or write) is still unknown, so
// a faithful split is impossible without lookahead. Migrations are rare per
// page relative to accesses, so the attribution error is small (documented
// in DESIGN.md).
func (t *Tracker) MigratePage(pi uint32, to Tier) {
	i := int(pi)
	if i>>chunkShift >= len(t.chunks) {
		return
	}
	ps := &t.chunks[i>>chunkShift].pages[i&(chunkPages-1)]
	if ps.touched == 0 {
		return
	}
	for l := range ps.lineTier {
		ps.lineTier[l] = uint8(to)
	}
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
// tier index). ids is the dense index→page-id mapping (core.PageTable.IDs);
// indices the tracker never saw an access for are skipped. totalCycles must
// be positive.
func (t *Tracker) Snapshot(totalCycles int64, ids []uint64) []PageAVF {
	if totalCycles <= 0 {
		panic("avf: Snapshot with non-positive duration")
	}
	denom := float64(trace.LinesPerPage) * float64(totalCycles)
	tiers := t.tiers
	out := make([]PageAVF, 0, t.observed)
	// One backing array for every page's ByTier keeps the snapshot to O(1)
	// allocations instead of one per page.
	shares := make([]float64, t.observed*tiers)
	for ci, c := range t.chunks {
		for j := range c.pages {
			ps := &c.pages[j]
			if ps.touched == 0 {
				continue
			}
			p := PageAVF{Page: ids[ci*chunkPages+j], Reads: ps.reads, Writes: ps.writes}
			p.ByTier, shares = shares[:tiers:tiers], shares[tiers:]
			for tier := 0; tier < tiers; tier++ {
				p.ByTier[tier] = float64(c.ace[tier*chunkPages+j]) / denom
				p.AVF += p.ByTier[tier]
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// PageCount returns the number of distinct pages observed.
func (t *Tracker) PageCount() int { return t.observed }

// MeanAVF returns the mean page AVF over totalCycles — the paper's Figure 2
// metric ("Average AVF of memory"). ids is as for Snapshot.
func (t *Tracker) MeanAVF(totalCycles int64, ids []uint64) float64 {
	if t.observed == 0 {
		return 0
	}
	sum := 0.0
	snap := t.Snapshot(totalCycles, ids)
	for _, p := range snap {
		sum += p.AVF
	}
	return sum / float64(len(snap))
}
