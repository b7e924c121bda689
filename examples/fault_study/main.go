// Fault study: the reliability substrate on its own. Runs the §3.2
// Monte-Carlo fault study of each tier of the paper's HBM+DDR machine
// (core.DefaultTopology, each tier with its own fault seed), then the
// extended study with permanent faults and scrubbing — the analysis an
// architect would run before committing to an ECC scheme.
//
//	go run ./examples/fault_study
package main

import (
	"fmt"
	"log"

	"hmem/internal/core"
	"hmem/internal/faultsim"
)

func main() {
	const trials = 20000
	rates := faultsim.SridharanTransient()

	fmt.Println("== transient-only (the paper's §3.2 configuration) ==")
	topo := core.DefaultTopology(1)
	perGB := make([]float64, len(topo.Tiers))
	for i, td := range topo.Tiers {
		res, err := faultsim.NewStudy(td.Org, rates, td.FaultSeed).Run(trials)
		if err != nil {
			log.Fatal(err)
		}
		perGB[i] = res.UncFITPerGB
		fmt.Printf("%-14s P(unc|1 fault)=%.3f  P(unc|2)=%.4f  unc FIT/GB=%.4f\n",
			td.Org.Name, res.PUncGivenK[1], res.PUncGivenK[2], res.UncFITPerGB)
	}
	fmt.Printf("HBM:DDR uncorrectable FIT ratio = %.0fx -> why perf-focused placement costs ~300x SER\n\n",
		perGB[topo.FastTier]/perGB[0])

	fmt.Println("== extension: permanent faults + scrubbing ==")
	for _, scrub := range []float64{0, 24, 1} {
		s := faultsim.NewScrubStudy(faultsim.DDR3ChipKill(), 0x5C12B)
		s.ScrubIntervalHours = scrub
		res, err := s.Run(trials)
		if err != nil {
			log.Fatal(err)
		}
		label := "no scrubbing"
		if scrub > 0 {
			label = fmt.Sprintf("scrub every %.0fh", scrub)
		}
		fmt.Printf("DDR3+ChipKill, %-18s P(unc|2 faults)=%.4f  unc FIT/GB=%.4f\n",
			label, res.PUncGivenK[2], res.UncFITPerGB)
	}
	fmt.Println()
	fmt.Println("Scrubbing shortens transient-fault lifetimes, cutting the chance")
	fmt.Println("that two faults coexist in one ChipKill word; permanent faults")
	fmt.Println("are immune to it (and dominate the residual rate).")
}
