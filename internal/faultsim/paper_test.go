package faultsim_test

import (
	"testing"

	"hmem/internal/core"
	"hmem/internal/faultsim"
)

// TestTierFITRatioMatchesPaperRegime runs the default topology's two tier
// studies, each with its own organization and fault seed, as every
// simulation does.
func TestTierFITRatioMatchesPaperRegime(t *testing.T) {
	topo := core.DefaultTopology(1)
	perGB := make([]float64, len(topo.Tiers))
	for i, td := range topo.Tiers {
		res, err := faultsim.NewStudy(td.Org, faultsim.SridharanTransient(), td.FaultSeed).Run(20000)
		if err != nil {
			t.Fatal(err)
		}
		if res.UncFITPerGB <= 0 {
			t.Fatalf("%s: non-positive FIT/GB %v", td.Name, res.UncFITPerGB)
		}
		perGB[i] = res.UncFITPerGB
	}
	ratio := perGB[topo.FastTier] / perGB[0]
	// The HBM tier must be dramatically less reliable per GB — the regime
	// that produces the paper's ~287x SER blowup for perf-focused
	// placement once AVF weighting is applied (Fig. 5).
	if ratio < 100 || ratio > 2000 {
		t.Fatalf("HBM/DDR unc-FIT ratio = %.0f, want O(100..1000)", ratio)
	}
}
