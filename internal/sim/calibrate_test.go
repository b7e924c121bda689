package sim

import (
	"sort"
	"testing"

	"hmem/internal/core"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// TestWorkloadCalibration runs every evaluated workload DDR-only and checks
// that the emergent statistics reproduce the paper's published aggregates:
//
//   - Figure 2: per-workload mean memory AVF spreads by several x, with
//     astar at the low end and milc near the high end.
//   - Figure 4: a material hot∧low-risk population exists in every workload
//     (paper: 9%-39%; lbm is called out as the outlier with few such pages).
//   - Figure 6: hotness and AVF are weakly correlated over the footprint.
//   - Figure 9a: write ratio and AVF of the hottest 1000 pages correlate
//     negatively (paper: ρ = -0.32).
func TestWorkloadCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs full workloads")
	}
	cfg := testConfig()
	meanAVF := map[string]float64{}
	for _, spec := range workload.AllSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			suite, err := spec.Build(40000, 0xCA11B)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg, suite.Streams(), nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			pageStats := res.Stats()
			m := res.MeanAVF
			meanAVF[spec.Name] = m
			if m < 0.005 || m > 0.40 {
				t.Errorf("mean AVF = %.3f outside the plausible Figure 2 band", m)
			}

			q := core.Quadrants(pageStats)
			if f := q.Frac(core.HotLowRisk); f < 0.04 || f > 0.45 {
				t.Errorf("hot+low-risk fraction = %.2f, want 0.04..0.45 (paper: 9%%-39%%)", f)
			}

			hot := make([]float64, len(pageStats))
			av := make([]float64, len(pageStats))
			for i, p := range pageStats {
				hot[i] = float64(p.Accesses())
				av[i] = p.AVF
			}
			hotCorr := stats.Pearson(hot, av)
			if hotCorr < -0.3 || hotCorr > 0.92 {
				t.Errorf("hotness-AVF correlation = %.2f, want weak-to-moderate (paper: 0.08)", hotCorr)
			}

			// Figure 9a methodology: write ratio vs AVF over the top-1000
			// hottest pages.
			byHot := append([]core.PageStats(nil), pageStats...)
			sort.Slice(byHot, func(i, j int) bool { return byHot[i].Accesses() > byHot[j].Accesses() })
			n := 1000
			if n > len(byHot) {
				n = len(byHot)
			}
			wr := make([]float64, n)
			av1k := make([]float64, n)
			for i := 0; i < n; i++ {
				wr[i] = byHot[i].WrRatio()
				av1k[i] = byHot[i].AVF
			}
			wrCorr := stats.Pearson(wr, av1k)
			if wrCorr > -0.10 {
				t.Errorf("writeRatio-AVF correlation (top1000) = %.2f, want clearly negative (paper: -0.32)", wrCorr)
			}
			t.Logf("meanAVF=%.3f hotLow=%.2f corr(h,avf)=%.2f corr(wr,avf|top1k)=%.2f",
				m, q.Frac(core.HotLowRisk), hotCorr, wrCorr)
		})
	}
	if len(meanAVF) == len(workload.AllSpecs()) {
		if meanAVF["astar"] >= meanAVF["milc"] {
			t.Errorf("AVF ordering violated: astar %.3f >= milc %.3f",
				meanAVF["astar"], meanAVF["milc"])
		}
		if meanAVF["milc"] < 2.5*meanAVF["astar"] {
			t.Errorf("AVF spread too small: milc %.3f vs astar %.3f (paper: 22.5%% vs 1.7%%)",
				meanAVF["milc"], meanAVF["astar"])
		}
	}
}
