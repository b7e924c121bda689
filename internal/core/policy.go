package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Policy is a static (profile-guided) placement: given per-page statistics
// and the HBM capacity in pages, it returns the pages to place in HBM. The
// remainder goes to DDRx. Implementations must be deterministic.
type Policy interface {
	Name() string
	Select(stats []PageStats, capacityPages int) []uint64
}

// rankBy returns up to capacity pages ordered by a descending key, breaking
// ties by page id so selections are deterministic.
func rankBy(stats []PageStats, capacity int, key func(PageStats) float64) []uint64 {
	if capacity <= 0 || len(stats) == 0 {
		return nil
	}
	type keyed struct {
		key  float64
		page uint64
	}
	ranked := make([]keyed, len(stats))
	for i, s := range stats {
		ranked[i] = keyed{key(s), s.Page}
	}
	slices.SortFunc(ranked, func(a, b keyed) int {
		if a.key != b.key {
			if a.key > b.key {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.page, b.page)
	})
	out := make([]uint64, min(capacity, len(ranked)))
	for i := range out {
		out[i] = ranked[i].page
	}
	return out
}

// DDROnly places nothing in HBM — the reliability-optimal, slowest baseline.
type DDROnly struct{}

// Name implements Policy.
func (DDROnly) Name() string { return "ddr-only" }

// Select implements Policy.
func (DDROnly) Select([]PageStats, int) []uint64 { return nil }

// PerfFocused fills HBM with the hottest pages — the §4.2 state-of-the-art
// baseline (1.6× IPC, 287× SER).
type PerfFocused struct{}

// Name implements Policy.
func (PerfFocused) Name() string { return "perf-focused" }

// Select implements Policy.
func (PerfFocused) Select(stats []PageStats, capacity int) []uint64 {
	return rankBy(stats, capacity, func(p PageStats) float64 { return float64(p.Accesses()) })
}

// PerfFraction places only the top F fraction of HBM capacity with hot
// pages, leaving the rest of HBM empty — the Figure 1 sweep knob.
type PerfFraction struct{ F float64 }

// Name implements Policy (distinct per fraction so result caches keyed by
// policy name stay correct).
func (p PerfFraction) Name() string { return fmt.Sprintf("perf-fraction-%.3f", p.F) }

// Select implements Policy.
func (p PerfFraction) Select(stats []PageStats, capacity int) []uint64 {
	f := p.F
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return PerfFocused{}.Select(stats, int(f*float64(capacity)))
}

// ReliabilityFocused fills HBM with low-risk pages: "places all low-risk
// pages (i.e., pages with AVF below a certain threshold) in HBM" (§5.1).
// With HBM capacity binding, the threshold resolves to "the capacity lowest
// AVF pages". Hotness is ignored entirely, which is why the paper's version
// hauls cold pages into HBM (SER ÷5 at a 17% IPC cost).
type ReliabilityFocused struct{}

// Name implements Policy.
func (ReliabilityFocused) Name() string { return "reliability-focused" }

// Select implements Policy.
func (ReliabilityFocused) Select(stats []PageStats, capacity int) []uint64 {
	return rankBy(stats, capacity, func(p PageStats) float64 { return -p.AVF })
}

// Balanced restricts HBM to the hot∧low-risk quadrant, ranked by hotness
// (§5.2). It never overflows the quadrant even when HBM has room left —
// the paper calls this out as the source of its conservatism.
type Balanced struct{}

// Name implements Policy.
func (Balanced) Name() string { return "balanced" }

// Select implements Policy.
func (Balanced) Select(stats []PageStats, capacity int) []uint64 {
	q := Quadrants(stats)
	eligible := make([]PageStats, 0, len(stats))
	for _, p := range stats {
		if q.Classify(p) == HotLowRisk {
			eligible = append(eligible, p)
		}
	}
	return rankBy(eligible, capacity, func(p PageStats) float64 { return float64(p.Accesses()) })
}

// WrRatio ranks by the §5.4.1 Wr/Rd AVF proxy (SER ÷1.8, 8.1% IPC loss —
// still picks cold low-risk pages).
type WrRatio struct{}

// Name implements Policy.
func (WrRatio) Name() string { return "wr-ratio" }

// Select implements Policy.
func (WrRatio) Select(stats []PageStats, capacity int) []uint64 {
	return rankBy(stats, capacity, PageStats.WrRatio)
}

// Wr2Ratio ranks by the §5.4.2 Wr²/Rd proxy, biasing toward hot pages
// (SER ÷1.6 at just 1% IPC loss — the paper's best static heuristic).
type Wr2Ratio struct{}

// Name implements Policy.
func (Wr2Ratio) Name() string { return "wr2-ratio" }

// Select implements Policy.
func (Wr2Ratio) Select(stats []PageStats, capacity int) []uint64 {
	return rankBy(stats, capacity, PageStats.Wr2Ratio)
}

// StaticPolicies returns the paper's static placement lineup in evaluation
// order.
func StaticPolicies() []Policy {
	return []Policy{
		DDROnly{}, PerfFocused{}, ReliabilityFocused{}, Balanced{}, WrRatio{}, Wr2Ratio{},
	}
}

// PolicyByName resolves a policy Name() back to the policy — the inverse
// needed to execute a policy run from a wire descriptor on another node.
// Every named lineup policy resolves; "perf-fraction-F" resolves only when
// the parsed fraction renders back to the same name (true for the eighths
// Figure 1 sweeps; a fraction that loses precision at three decimals would
// silently select a different page set, so it reports false instead).
func PolicyByName(name string) (Policy, bool) {
	for _, p := range StaticPolicies() {
		if p.Name() == name {
			return p, true
		}
	}
	if rest, ok := strings.CutPrefix(name, "perf-fraction-"); ok {
		f, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, false
		}
		p := PerfFraction{F: f}
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}
