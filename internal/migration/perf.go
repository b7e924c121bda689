// Package migration implements the paper's dynamic data-migration
// mechanisms (§6): the performance-focused full-counter baseline modeled on
// Meswani et al.'s HMA [40], the reliability-aware Full Counter mechanism
// (§6.2), and the hardware-cheap Cross Counter mechanism combining an MEA
// hotness unit with HBM-only risk counters (§6.4).
//
// Interval lengths are constructor parameters: the paper uses 100 ms FC
// intervals and 50 µs MEA intervals at 3.2 GHz; the experiments package
// scales both down while preserving their ratio (DESIGN.md §3).
package migration

import (
	"hmem/internal/core"
	"hmem/internal/sim"
)

// Perf is the performance-focused migration baseline (§6.1): raw access
// counters per page; at every interval, pages hotter than the interval mean
// migrate into HBM, displacing the coldest HBM residents.
type Perf struct {
	interval int64
	counters *core.FullCounters
	pt       *core.PageTable
}

// NewPerf builds the baseline with the given interval in CPU cycles.
func NewPerf(intervalCycles int64) *Perf {
	return &Perf{interval: intervalCycles}
}

// Name implements sim.Migrator.
func (p *Perf) Name() string { return "perf-migration" }

// Bind implements sim.Migrator.
func (p *Perf) Bind(pt *core.PageTable) {
	p.pt, p.counters = pt, core.NewFullCounters(8, pt.Len())
}

// IntervalCycles implements sim.Migrator.
func (p *Perf) IntervalCycles() int64 { return p.interval }

// OnAccess implements sim.Migrator.
func (p *Perf) OnAccess(pi core.PageIndex, write bool, _ bool) {
	p.counters.Observe(pi, write)
}

// Decide implements sim.Migrator: swap cold HBM residents for hot DDR pages,
// using the interval's mean page hotness as the threshold ("We use dynamic
// mean page hotness levels during each interval to determine the threshold").
func (p *Perf) Decide(_ int64, placement *sim.Placement) (in, out []uint64) {
	snap := p.counters.Snapshot(p.pt)
	defer p.counters.Reset()
	if len(snap) == 0 {
		return nil, nil
	}
	mean := core.MeanHotness(snap)

	// In: DDR pages above mean hotness, hottest first.
	var inCand []core.PageStats
	for _, s := range snap {
		if float64(s.Accesses()) > mean && !placement.InHBM(s.Page) {
			inCand = append(inCand, s)
		}
	}
	in = core.PerfFocused{}.Select(inCand, len(inCand))

	// Out: HBM residents at or below mean hotness (untouched residents
	// count as zero), coldest first.
	var outCand []core.PageStats
	for _, page := range placement.HBMPages() {
		if placement.Pinned(page) {
			continue
		}
		s, _ := intervalStats(p.counters, p.pt, page)
		if c := s.Accesses(); float64(c) <= mean {
			outCand = append(outCand, core.PageStats{Page: page, Reads: c})
		}
	}
	return boundChurn(placement, in, pagesByHotnessAsc(outCand))
}

// boundChurn caps one interval's swap. The paper's HMA turns over ~18% of
// HBM per interval (47K of 262K pages); at most a quarter of HBM leaves or
// enters, and the swap is paired: only as many pages come in as leave plus
// free room.
func boundChurn(placement *sim.Placement, in, out []uint64) ([]uint64, []uint64) {
	maxSwap := max(int(placement.HBMCapacity()/4), 1)
	if len(out) > maxSwap {
		out = out[:maxSwap]
	}
	budget := min(len(out)+placement.HBMFreePages(), maxSwap)
	if len(in) > budget {
		in = in[:budget]
	}
	return in, out
}
