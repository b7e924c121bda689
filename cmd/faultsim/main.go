// Command faultsim runs the Monte-Carlo DRAM fault study (§3.2) for every
// tier of the paper's HBM+DDR machine (core.DefaultTopology), each with its
// own organization and fault seed, and prints per-mode outcomes,
// uncorrectable FIT rates and the fast-to-slow per-GB FIT ratio. This is the
// stand-in for the FaultSim tool the paper uses.
//
// Usage:
//
//	faultsim [-trials 20000] [-years 5] [-hbm-multiplier 2.0]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hmem/internal/core"
	"hmem/internal/ecc"
	"hmem/internal/faultsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		trials   = fs.Int("trials", 20000, "Monte-Carlo trials per fault-count stratum")
		years    = fs.Float64("years", 5, "fault accumulation horizon in years")
		mult     = fs.Float64("hbm-multiplier", 2.0, "HBM raw-FIT multiplier vs field-study DDR devices")
		parallel = fs.Int("parallel", 0, "max concurrent trial shards (<=0 = NumCPU)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rates := faultsim.SridharanTransient()
	fmt.Fprintf(stdout, "transient FIT per chip (Sridharan & Liberty SC'12): bit=%.1f word=%.1f column=%.1f row=%.1f bank=%.1f beyond-ECC=%.2f\n\n",
		rates.Bit, rates.Word, rates.Column, rates.Row, rates.Bank, rates.Rank)

	topo := core.DefaultTopology(1)
	perGB := make([]float64, len(topo.Tiers))
	for i, td := range topo.Tiers {
		org := td.Org
		if i == topo.FastTier {
			org.RawFITMultiplier = *mult
		}
		study := faultsim.NewStudy(org, rates, td.FaultSeed)
		study.HorizonHours = *years * 8760
		study.Workers = *parallel
		res, err := study.Run(*trials)
		if err != nil {
			fmt.Fprintln(stderr, "faultsim:", err)
			return 1
		}
		perGB[i] = res.UncFITPerGB

		fmt.Fprintf(stdout, "== %s (%s, %d chips, %.1f GB data) ==\n",
			res.Org.Name, res.Org.Scheme, res.Org.Chips, res.Org.DataGB())
		fmt.Fprintf(stdout, "expected faults per rank-horizon: %.4f\n", res.LambdaFaults)
		fmt.Fprintln(stdout, "single-fault outcomes by mode:")
		for m := faultsim.ModeBit; m < faultsim.ModeRank; m++ {
			outs := res.SingleFaultOutcomes[m]
			fmt.Fprintf(stdout, "  %-7s corrected=%-6d uncorrectable=%d\n",
				m, outs[ecc.Corrected], outs[ecc.DetectedUncorrectable]+outs[ecc.Miscorrected])
		}
		fmt.Fprint(stdout, "P(uncorrectable | k faults):")
		for k := 1; k < len(res.PUncGivenK); k++ {
			fmt.Fprintf(stdout, " k=%d:%.4f", k, res.PUncGivenK[k])
		}
		fmt.Fprintf(stdout, "\nP(uncorrectable in horizon) = %.3e\n", res.PUnc)
		fmt.Fprintf(stdout, "uncorrectable FIT: %.4f per rank, %.4f per GB\n\n",
			res.UncFITPerRank, res.UncFITPerGB)
	}

	fmt.Fprintf(stdout, "%s/%s uncorrectable FIT ratio per GB: %.0fx\n",
		topo.TierName(topo.FastTier), topo.TierName(0), perGB[topo.FastTier]/perGB[0])
	return 0
}
