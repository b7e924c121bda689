package experiments

import (
	"context"

	"fmt"

	"hmem/internal/core"
	"hmem/internal/ecc"
	"hmem/internal/memsim"
	"hmem/internal/report"
	"hmem/internal/workload"
)

// Table1 renders the simulated system configuration (the paper's Table 1 at
// the runner's scale).
func (r *Runner) Table1() *report.Table {
	t := report.New("Table 1: system configuration (scale 1/"+report.Int(r.opts.ScaleDiv)+")",
		"component", "parameter", "value")
	t.AddRow("processor", "cores", report.Int(workload.Cores))
	t.AddRow("processor", "issue width", report.Int(r.cfg.IssueWidth))
	t.AddRow("processor", "outstanding reads/core", report.Int(r.cfg.MaxOutstanding))
	add := func(label string, c memsim.Config) {
		t.AddRow(label, "capacity", fmt.Sprintf("%d MiB", c.CapacityBytes>>20))
		t.AddRow(label, "channels", report.Int(c.Channels))
		t.AddRow(label, "banks/rank", report.Int(c.BanksPerRank))
		t.AddRow(label, "bus bytes/beat", report.Int(c.BusBytesPerBeat))
		t.AddRow(label, "peak bandwidth", report.F(c.PeakBandwidth(), 1)+" B/cycle")
	}
	// Tier rows come from the topology: the fast tier first, then the rest
	// in descending index — HBM then DDR3 for the paper's default machine.
	add(tierLabel(r.topo.Tiers[r.topo.FastTier]), r.topo.Tiers[r.topo.FastTier].Mem)
	for i := len(r.topo.Tiers) - 1; i >= 0; i-- {
		if i == r.topo.FastTier {
			continue
		}
		add(tierLabel(r.topo.Tiers[i]), r.topo.Tiers[i].Mem)
	}
	return t
}

// tierLabel renders a tier's table heading: the memsim config name plus the
// ECC scheme protecting it ("HBM (SEC-DED)", "DDR3 (ChipKill)").
func tierLabel(td core.TierDesc) string {
	scheme := ""
	switch td.Org.Scheme {
	case ecc.SECDED:
		scheme = "SEC-DED"
	case ecc.ChipKillSSC:
		scheme = "ChipKill"
	default:
		scheme = "no ECC"
	}
	if td.FITPerGB > 0 {
		scheme = fmt.Sprintf("%.3g FIT/GB", td.FITPerGB)
	}
	return td.Mem.Name + " (" + scheme + ")"
}

// Table2 renders the Table 2 mix compositions.
func (r *Runner) Table2() *report.Table {
	t := report.New("Table 2: mixed workloads", "mix", "composition")
	for _, mix := range workload.MixSpecs() {
		desc := ""
		for i, m := range mix.Members {
			if i > 0 {
				desc += ", "
			}
			desc += fmt.Sprintf("%s x%d", m.Bench, m.Copies)
		}
		t.AddRow(mix.Name, desc)
	}
	return t
}

// Table3 is the paper's summary: every scheme's average IPC degradation and
// SER improvement against its performance-focused baseline.
func (r *Runner) Table3(ctx context.Context) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	schemes := []struct {
		label, paper string
		cmp          comparison
	}{
		{"reliability-focused (static)", "17% / 5.0x", comparison{perfStaticBlock, staticBlock(core.ReliabilityFocused{})}},
		{"balanced (static)", "14% / 3.0x", comparison{perfStaticBlock, staticBlock(core.Balanced{})}},
		{"Wr ratio (heuristic)", "8.1% / 1.8x", comparison{perfStaticBlock, staticBlock(core.WrRatio{})}},
		{"Wr2 ratio (heuristic)", "1% / 1.6x", comparison{perfStaticBlock, staticBlock(core.Wr2Ratio{})}},
		{"reliability-aware FC (dynamic)", "6% / 1.8x", comparison{perfMigBlock, dynamicBlock(mechFC)}},
		{"reliability-aware CC (dynamic)", "4.9% / 1.5x", comparison{perfMigBlock, dynamicBlock(mechCC)}},
		{"program annotations", "1.1% / 1.3x", comparison{perfStaticBlock, annotationBlock}},
	}
	cmps := make([]comparison, len(schemes))
	for i, s := range schemes {
		cmps[i] = s.cmp
	}
	cells, err := r.grid(ctx, ordered, cmps...)
	if err != nil {
		return nil, err
	}
	t := report.New("Table 3: summary of reliability-aware schemes",
		"scheme", "IPC degradation", "SER improvement", "paper (IPC / SER)")
	for i, avg := range means(cells) {
		t.AddRow(schemes[i].label, report.Pct(1-avg.ipc), report.X(safeInv(avg.ser)), schemes[i].paper)
	}
	t.Note = "IPC degradation and SER improvement vs the respective performance-focused baseline (Table 3)"
	return t, nil
}

// TableHardwareCost reproduces the §6.3/§6.4.2 storage accounting at the
// paper's full scale and at the experiment scale.
func (r *Runner) TableHardwareCost() *report.Table {
	t := report.New("Hardware cost of migration mechanisms (§6.3, §6.4.2)",
		"mechanism", "scope", "bytes", "notes")
	fullTotal := 17 * (1 << 30) / 4096
	fullHBM := (1 << 30) / 4096
	t.AddRow("Full Counters", "paper scale (17 GB HMA)",
		report.Int(core.FCCostBytes(fullTotal)), "2x 8-bit counters per page (8.5 MB)")
	t.AddRow("Full Counters (additional)", "paper scale",
		report.Int(core.FCAdditionalCostBytes(fullTotal)), "extra vs perf-only tracking (4.25 MB)")
	t.AddRow("Cross Counters", "paper scale (1 GB HBM)",
		report.Int(core.CCCostBytes(fullHBM)), "512 KB risk + 100 KB MEA + 64 KB remap = 676 KB")
	scaledTotal := int(r.topo.TotalPages())
	scaledHBM := int(r.topo.FastPages())
	t.AddRow("Full Counters", "experiment scale",
		report.Int(core.FCCostBytes(scaledTotal)), "")
	t.AddRow("Cross Counters", "experiment scale",
		report.Int(core.CCCostBytes(scaledHBM)), "")
	return t
}

func safeInv(v float64) float64 {
	if v == 0 {
		return 0
	}
	return 1 / v
}
