package migration

import (
	"cmp"
	"slices"

	"hmem/internal/core"
	"hmem/internal/sim"
)

// pagesByHotnessAsc returns page ids ordered coldest-first (ties by id).
func pagesByHotnessAsc(stats []core.PageStats) []uint64 {
	slices.SortFunc(stats, func(a, b core.PageStats) int {
		if o := cmp.Compare(a.Accesses(), b.Accesses()); o != 0 {
			return o
		}
		return cmp.Compare(a.Page, b.Page)
	})
	out := make([]uint64, len(stats))
	for i, s := range stats {
		out[i] = s.Page
	}
	return out
}

// FullCounter is the reliability-aware migration mechanism of §6.2: the
// baseline's counters split into read and write sets, giving both hotness
// (R+W) and runtime risk (Wr/Rd) per page. At every interval it exchanges
// cold-or-high-risk HBM residents for hot-and-low-risk DDR pages, using the
// interval's mean hotness and mean risk as thresholds.
type FullCounter struct {
	interval int64
	counters *core.FullCounters
	pt       *core.PageTable
}

// NewFullCounter builds the FC mechanism with the given interval.
func NewFullCounter(intervalCycles int64) *FullCounter {
	return &FullCounter{interval: intervalCycles}
}

// Name implements sim.Migrator.
func (f *FullCounter) Name() string { return "fc-reliability" }

// Bind implements sim.Migrator.
func (f *FullCounter) Bind(pt *core.PageTable) {
	f.pt, f.counters = pt, core.NewFullCounters(8, pt.Len())
}

// IntervalCycles implements sim.Migrator.
func (f *FullCounter) IntervalCycles() int64 { return f.interval }

// OnAccess implements sim.Migrator.
func (f *FullCounter) OnAccess(pi core.PageIndex, write bool, _ bool) {
	f.counters.Observe(pi, write)
}

// Decide implements sim.Migrator.
func (f *FullCounter) Decide(_ int64, placement *sim.Placement) (in, out []uint64) {
	snap := f.counters.Snapshot(f.pt)
	defer f.counters.Reset()
	if len(snap) == 0 {
		return nil, nil
	}
	meanHot := core.MeanHotness(snap)
	meanRisk := meanWrRatio(snap)
	// A page is low-risk when writes dominate reads (§5.3: high write ratio
	// -> more dead intervals -> low AVF). In-migration demands Wr/Rd at or
	// above the interval mean; eviction uses a half-mean hysteresis so a
	// uniformly low-risk HBM population does not churn against its own
	// mean.
	lowRisk := func(s core.PageStats) bool { return s.WrRatio() >= meanRisk }
	evictRisk := func(s core.PageStats) bool { return s.WrRatio() < 0.5*meanRisk }

	// In: hot AND low-risk pages currently in DDR, hottest first.
	var inCand []core.PageStats
	for _, s := range snap {
		if float64(s.Accesses()) > meanHot && lowRisk(s) && !placement.InHBM(s.Page) {
			inCand = append(inCand, s)
		}
	}
	in = core.PerfFocused{}.Select(inCand, len(inCand))

	// Out: HBM residents that are cold OR high-risk; evict the riskiest/
	// coldest first (cold untouched pages have zero counts).
	var outCand []core.PageStats
	for _, page := range placement.HBMPages() {
		if placement.Pinned(page) {
			continue
		}
		s, _ := intervalStats(f.counters, f.pt, page)
		if float64(s.Accesses()) <= meanHot || evictRisk(s) {
			outCand = append(outCand, s)
		}
	}
	return boundChurn(placement, in, pagesByHotnessAsc(outCand))
}

// intervalStats returns page's counts this interval, looked up by its index
// in pt, and whether the page was observed this interval.
func intervalStats(c *core.FullCounters, pt *core.PageTable, page uint64) (core.PageStats, bool) {
	s := core.PageStats{Page: page}
	pi, ok := pt.Index(page)
	if !ok {
		return s, false
	}
	var touched bool
	s.Reads, s.Writes, touched = c.Counts(pi)
	return s, touched
}

// meanWrRatio returns the mean Wr/Rd over the interval's touched pages.
func meanWrRatio(snap []core.PageStats) float64 {
	if len(snap) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range snap {
		sum += s.WrRatio()
	}
	return sum / float64(len(snap))
}
