// Package workload synthesizes SPEC CPU2006- and DoE-proxy-like memory
// traces, replacing the paper's PinPlay/SimPoints traces (§3.3), which are
// not redistributable. Each benchmark is modeled as a set of program
// *structures* (arrays, trees, buffers) whose pages share an access class:
// write ratio, liveness window, access pattern, and hotness boost. Hotness
// skew across pages follows a Zipf distribution, assigned independently of
// the risk-determining write behaviour — which is precisely what makes the
// paper's observation reproducible: hotness and AVF end up weakly correlated
// (ρ≈0.08, Fig. 6) while write ratio correlates negatively with AVF
// (ρ≈-0.32, Fig. 9a).
//
// The class fractions per benchmark are tuned so the aggregate targets from
// the paper hold: mean memory AVF spanning ~2%-22% across benchmarks
// (Fig. 2) and a hot∧low-risk population of 9-39% of the footprint (Fig. 4).
package workload

import "fmt"

// Pattern selects how accesses walk the lines of a page.
type Pattern uint8

const (
	// PatternRandom touches a per-page random subset of lines (pointer-
	// chasing structures: trees, hash tables).
	PatternRandom Pattern = iota
	// PatternStream walks lines sequentially (array sweeps: lbm, bwaves).
	PatternStream
	// PatternBurst emits write->read pairs on the same line before moving
	// on (scratch buffers: produce, consume immediately). The ACE interval
	// of each line is one inter-access gap out of ~2xCoverageLines gaps per
	// sweep, so burst pages are hot yet very low AVF — the §4.2 hot and
	// low-risk population — at a balanced read/write mix.
	PatternBurst
)

// Class describes the shared behaviour of one program structure's pages.
type Class struct {
	// Name labels the class in structure listings ("hot-scratch", ...).
	Name string
	// Frac is the fraction of the benchmark's footprint in this class.
	Frac float64
	// WriteProb is the probability an access is a write. High write ratios
	// create frequent dead intervals and therefore low AVF (§5.3).
	WriteProb float64
	// HotBoost multiplies the Zipf hotness weight of the class's pages.
	HotBoost float64
	// CoverageLines is how many of a page's 64 lines are actively used.
	// Fewer covered lines -> more repeat accesses per line -> longer ACE
	// spans on those lines but a lower page-level ceiling (AVF averages
	// over all 64 lines).
	CoverageLines int
	// Window is the live phase of execution [start, end) in 0..1; outside
	// it the class's pages are not accessed (init-then-dead buffers etc.).
	Window [2]float64
	// Pattern selects the line walk.
	Pattern Pattern
	// Burst is how many consecutive accesses hit the page once it is
	// scheduled (temporal locality of the post-cache miss stream: a
	// streamed page produces a run of back-to-back line misses, a
	// pointer-chase touches a page once or twice). 0 means 1.
	Burst int
}

// Profile is a synthetic benchmark definition (one SPEC/DoE program).
type Profile struct {
	// Name is the benchmark name as used in the paper's figures.
	Name string
	// FootprintPages is the per-process footprint in 4 KiB pages at the
	// reproduction's default scale (1/64 of the paper's footprints; the
	// capacity ratios of Table 1 are scaled identically in the experiments
	// package).
	FootprintPages int
	// ZipfS is the hotness skew across pages.
	ZipfS float64
	// MPKI is post-cache-filter memory accesses per kilo-instruction; it
	// sets the mean instruction gap between trace records (1000/MPKI).
	MPKI float64
	// Classes partition the footprint.
	Classes []Class
	// MeanStructPages controls the structure-size distribution; a handful
	// of large structures makes annotation cheap (Fig. 17), many small
	// ones makes it expensive (cactusADM, mixes).
	MeanStructPages int
}

// Validate reports profile configuration errors.
func (p Profile) Validate() error {
	if p.FootprintPages <= 0 {
		return fmt.Errorf("workload: %s: FootprintPages must be positive", p.Name)
	}
	if p.FootprintPages >= maxPages {
		return fmt.Errorf("workload: %s: FootprintPages must be below %d", p.Name, maxPages)
	}
	if p.MPKI <= 0 {
		return fmt.Errorf("workload: %s: MPKI must be positive", p.Name)
	}
	if p.ZipfS < 0 {
		return fmt.Errorf("workload: %s: ZipfS must be non-negative", p.Name)
	}
	if p.MeanStructPages <= 0 {
		return fmt.Errorf("workload: %s: MeanStructPages must be positive", p.Name)
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("workload: %s: needs at least one class", p.Name)
	}
	sum := 0.0
	for _, c := range p.Classes {
		if c.Frac < 0 || c.WriteProb < 0 || c.WriteProb > 1 {
			return fmt.Errorf("workload: %s/%s: bad Frac or WriteProb", p.Name, c.Name)
		}
		if c.CoverageLines < 1 || c.CoverageLines > 64 {
			return fmt.Errorf("workload: %s/%s: CoverageLines must be 1..64", p.Name, c.Name)
		}
		if c.Window[0] < 0 || c.Window[1] > 1 || c.Window[0] >= c.Window[1] {
			return fmt.Errorf("workload: %s/%s: bad Window", p.Name, c.Name)
		}
		if c.HotBoost <= 0 {
			return fmt.Errorf("workload: %s/%s: HotBoost must be positive", p.Name, c.Name)
		}
		if c.Burst < 0 {
			return fmt.Errorf("workload: %s/%s: Burst must be non-negative", p.Name, c.Name)
		}
		sum += c.Frac
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: %s: class fractions sum to %v, want 1", p.Name, sum)
	}
	return nil
}

// Standard class builders shared across profiles.

// hotScratch: frequently accessed produce-then-consume working buffers —
// the paper's hot∧low-risk population, ideal HBM residents. cov sets the
// line coverage and with it the class AVF (~1/(2·cov)): benchmarks with a
// high overall AVF use narrow scratch buffers whose AVF is meaningful yet
// below the workload mean, matching the paper's SER arithmetic where even
// the balanced placement carries real AVF into HBM.
func hotScratch(frac float64, cov int) Class {
	return Class{Name: "hot-scratch", Frac: frac, WriteProb: 0.5, HotBoost: 25,
		CoverageLines: cov, Window: [2]float64{0, 1}, Pattern: PatternBurst, Burst: 16}
}

// hotRead: frequently accessed, read-mostly structures — hot∧high-risk;
// placing these in HBM buys performance but costs reliability.
func hotRead(frac float64) Class {
	return Class{Name: "hot-read", Frac: frac, WriteProb: 0.22, HotBoost: 35,
		CoverageLines: 12, Window: [2]float64{0, 1}, Pattern: PatternRandom, Burst: 2}
}

// warmMix: medium-temperature mixed pages.
func warmMix(frac, writeP float64) Class {
	return Class{Name: "warm-mix", Frac: frac, WriteProb: writeP, HotBoost: 6,
		CoverageLines: 10, Window: [2]float64{0, 1}, Pattern: PatternRandom, Burst: 2}
}

// coldRead: rarely accessed but long-lived read data — cold∧high-risk. The
// tiny line coverage concentrates the page's few accesses on the same lines,
// so the reads at the end of execution close ACE intervals spanning most of
// the run.
func coldRead(frac float64) Class {
	return Class{Name: "cold-read", Frac: frac, WriteProb: 0.05, HotBoost: 3,
		CoverageLines: 8, Window: [2]float64{0, 1}, Pattern: PatternRandom}
}

// initDead: written early, never used again — cold∧low-risk.
func initDead(frac float64) Class {
	return Class{Name: "init-dead", Frac: frac, WriteProb: 0.7, HotBoost: 1,
		CoverageLines: 40, Window: [2]float64{0, 0.25}, Pattern: PatternStream, Burst: 16}
}
