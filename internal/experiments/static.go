package experiments

import (
	"context"

	"sort"

	"hmem/internal/core"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// mpkiOf computes misses-per-kilo-instruction from a run.
func mpkiOf(res sim.Result) float64 {
	if res.Instructions == 0 {
		return 0
	}
	return float64(res.Reads+res.Writes) / float64(res.Instructions) * 1000
}

// byMPKIDesc returns the runner's workloads ordered from bandwidth-intensive
// to latency-sensitive (the Figure 7 x-axis ordering). The profiling runs
// behind the MPKIs execute concurrently; the stable sort over the fixed
// spec order keeps the result deterministic.
func (r *Runner) byMPKIDesc(ctx context.Context) ([]workload.Spec, error) {
	specs := r.Workloads()
	mpkis, err := mapSpecs(ctx, r, specs, func(s workload.Spec) (float64, error) {
		p, err := r.ProfileOf(ctx, s)
		if err != nil {
			return 0, err
		}
		return mpkiOf(p.Result), nil
	})
	if err != nil {
		return nil, err
	}
	type entry struct {
		spec workload.Spec
		mpki float64
	}
	entries := make([]entry, len(specs))
	for i, s := range specs {
		entries[i] = entry{s, mpkis[i]}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].mpki > entries[j].mpki })
	out := make([]workload.Spec, len(entries))
	for i, e := range entries {
		out[i] = e.spec
	}
	return out, nil
}

// policyTable renders a static-policy comparison in the layout shared by
// Figures 5, 7, 8, 10 and 11.
func (r *Runner) policyTable(ctx context.Context, title string, policy core.Policy, note string) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	pol := staticBlock(policy)
	cells, err := r.grid(ctx, ordered, comparison{profileBlock, pol}, comparison{perfStaticBlock, pol})
	if err != nil {
		return nil, err
	}
	t := report.New(title,
		"workload", "IPC vs DDR-only", "SER vs DDR-only", "IPC vs perf-focused", "SER vs perf-focused")
	row := func(label string, ddr, perf ratios) {
		t.AddRow(label, report.X(ddr.ipc), report.X(ddr.ser), report.X(perf.ipc), report.X(perf.ser))
	}
	for s, spec := range ordered {
		row(spec.Name, cells[0][s], cells[1][s])
	}
	avg := means(cells)
	row("average", avg[0], avg[1])
	t.Note = note
	return t, nil
}

// Figure1 sweeps the fraction of hot pages placed in HBM (astar, cactusADM,
// mix1 averaged, as in the paper's motivation figure): the SER cost of
// approaching full performance.
func (r *Runner) Figure1(ctx context.Context) (*report.Table, error) {
	specs, err := resolveWorkloads([]string{"astar", "cactusADM", "mix1"})
	if err != nil {
		return nil, err
	}
	fractions := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
	cmps := make([]comparison, len(fractions))
	for i, f := range fractions {
		cmps[i] = comparison{profileBlock, staticBlock(core.PerfFraction{F: f})}
	}
	cells, err := r.grid(ctx, specs, cmps...)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 1: reliability vs performance across hot-page fractions",
		"fraction of HBM filled", "IPC vs DDR-only (avg)", "SER vs DDR-only (avg)")
	for i, avg := range means(cells) {
		t.AddRow(report.Pct(fractions[i]), report.X(avg.ipc), report.X(avg.ser))
	}
	t.Note = "paper: the loss in reliability to achieve full performance is extreme (Fig. 1)"
	return t, nil
}

// Figure2 reports each workload's mean memory AVF on DDR-only, ascending —
// the paper's Figure 2 (range 1.7%..22.5%).
func (r *Runner) Figure2(ctx context.Context) (*report.Table, error) {
	type entry struct {
		name string
		avf  float64
	}
	specs := r.Workloads()
	entries, err := mapSpecs(ctx, r, specs, func(spec workload.Spec) (entry, error) {
		p, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return entry{}, err
		}
		return entry{spec.Name, p.Result.MeanAVF}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].avf < entries[j].avf })
	t := report.New("Figure 2: average memory AVF per workload (DDR-only)", "workload", "mean AVF")
	for _, e := range entries {
		t.AddRow(e.name, report.Pct(e.avf))
	}
	t.Note = "paper: AVF varies from 1.7% (astar) to 22.5% (milc)"
	return t, nil
}

// Figure4 is the quadrant census: the share of each workload's footprint in
// the four hotness/risk quadrants, highlighting hot∧low-risk (9-39%).
func (r *Runner) Figure4(ctx context.Context) (*report.Table, error) {
	t := report.New("Figure 4: hotness-risk quadrants per workload",
		"workload", "hot+low-risk", "hot+high-risk", "cold+low-risk", "cold+high-risk", "pages")
	specs := r.Workloads()
	quads, err := mapSpecs(ctx, r, specs, func(spec workload.Spec) (core.QuadrantSummary, error) {
		p, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return core.QuadrantSummary{}, err
		}
		return core.Quadrants(p.Stats), nil
	})
	if err != nil {
		return nil, err
	}
	minHL, maxHL := 1.0, 0.0
	for i, spec := range specs {
		q := quads[i]
		hl := q.Frac(core.HotLowRisk)
		if hl < minHL {
			minHL = hl
		}
		if hl > maxHL {
			maxHL = hl
		}
		t.AddRow(spec.Name, report.Pct(hl), report.Pct(q.Frac(core.HotHighRisk)),
			report.Pct(q.Frac(core.ColdLowRisk)), report.Pct(q.Frac(core.ColdHighRisk)),
			report.Int(q.Total))
	}
	t.Note = "hot+low-risk spans " + report.Pct(minHL) + ".." + report.Pct(maxHL) +
		" (paper: 9%..39%)"
	return t, nil
}

// Figure5 is the performance-focused placement: IPC boost and SER blowup
// versus DDR-only (paper: 1.6x IPC, 287x SER).
func (r *Runner) Figure5(ctx context.Context) (*report.Table, error) {
	return r.policyTable(ctx, "Figure 5: performance-focused static placement",
		core.PerfFocused{}, "paper: 1.6x IPC and 287x SER vs DDR-only on average")
}

// Figure6 examines the hottest 1000 pages of mix1: hotness deciles vs AVF,
// and the footprint-wide hotness-AVF correlation (paper: ρ = 0.08).
func (r *Runner) Figure6(ctx context.Context) (*report.Table, error) {
	spec, err := workload.SpecByName("mix1")
	if err != nil {
		return nil, err
	}
	p, err := r.ProfileOf(ctx, spec)
	if err != nil {
		return nil, err
	}
	byHot := append([]core.PageStats(nil), p.Stats...)
	sort.Slice(byHot, func(i, j int) bool { return byHot[i].Accesses() > byHot[j].Accesses() })
	n := 1000
	if n > len(byHot) {
		n = len(byHot)
	}
	top := byHot[:n]
	t := report.New("Figure 6: hotness vs AVF for the 1000 hottest pages (mix1)",
		"hotness rank", "mean accesses", "mean AVF")
	const buckets = 10
	for b := 0; b < buckets; b++ {
		lo, hi := b*n/buckets, (b+1)*n/buckets
		var acc, avf float64
		for _, s := range top[lo:hi] {
			acc += float64(s.Accesses())
			avf += s.AVF
		}
		cnt := float64(hi - lo)
		t.AddRow(report.Int(lo+1)+"-"+report.Int(hi), report.F(acc/cnt, 1), report.Pct(avf/cnt))
	}
	hot := make([]float64, len(p.Stats))
	av := make([]float64, len(p.Stats))
	for i, s := range p.Stats {
		hot[i] = float64(s.Accesses())
		av[i] = s.AVF
	}
	t.Note = "footprint-wide Pearson(hotness, AVF) = " +
		report.F(stats.Pearson(hot, av), 2) + " (paper: 0.08)"
	return t, nil
}

// Figure7 is the naive reliability-focused placement (paper: SER ÷5 at 17%
// IPC loss vs perf-focused), workloads ordered by MPKI.
func (r *Runner) Figure7(ctx context.Context) (*report.Table, error) {
	return r.policyTable(ctx, "Figure 7: reliability-focused static placement (MPKI-ordered)",
		core.ReliabilityFocused{}, "paper: SER reduced 5x, IPC -17% vs perf-focused")
}

// Figure8 is the balanced quadrant placement (paper: SER ÷3, IPC -14%).
func (r *Runner) Figure8(ctx context.Context) (*report.Table, error) {
	return r.policyTable(ctx, "Figure 8: balanced (hot+low-risk) static placement",
		core.Balanced{}, "paper: SER reduced 3x, IPC -14% vs perf-focused")
}

// Figure9 reports the write-ratio risk proxy on mix1: the correlation with
// AVF over the hottest 1000 pages (paper: ρ = -0.32) and the write-ratio
// histogram over the footprint (paper Figure 9b).
func (r *Runner) Figure9(ctx context.Context) (*report.Table, error) {
	spec, err := workload.SpecByName("mix1")
	if err != nil {
		return nil, err
	}
	p, err := r.ProfileOf(ctx, spec)
	if err != nil {
		return nil, err
	}
	byHot := append([]core.PageStats(nil), p.Stats...)
	sort.Slice(byHot, func(i, j int) bool { return byHot[i].Accesses() > byHot[j].Accesses() })
	n := 1000
	if n > len(byHot) {
		n = len(byHot)
	}
	wr := make([]float64, n)
	av := make([]float64, n)
	for i, s := range byHot[:n] {
		wr[i] = s.WrRatio()
		av[i] = s.AVF
	}
	rho := stats.Pearson(wr, av)

	// Histogram of write fraction W/(R+W) over the whole footprint.
	fracs := make([]float64, 0, len(p.Stats))
	for _, s := range p.Stats {
		total := s.Reads + s.Writes
		if total == 0 {
			continue
		}
		fracs = append(fracs, float64(s.Writes)/float64(total))
	}
	hist := stats.Histogram(fracs, 0, 1, 5)
	t := report.New("Figure 9: write-ratio risk proxy (mix1)", "write-ratio bin", "pages")
	labels := []string{"1-20%", "21-40%", "41-60%", "61-80%", "81-100%"}
	for i, c := range hist {
		t.AddRow(labels[i], report.Int(c))
	}
	t.Note = "Pearson(write ratio, AVF) over top-1000 hot pages = " +
		report.F(rho, 2) + " (paper: -0.32)"
	return t, nil
}

// Figure10 is the Wr-ratio heuristic placement (paper: SER ÷1.8, IPC -8.1%).
func (r *Runner) Figure10(ctx context.Context) (*report.Table, error) {
	return r.policyTable(ctx, "Figure 10: top Wr-ratio static placement",
		core.WrRatio{}, "paper: SER reduced 1.8x, IPC -8.1% vs perf-focused")
}

// Figure11 is the Wr²-ratio heuristic placement — the paper's best static
// heuristic (SER ÷1.6 at just 1% IPC loss).
func (r *Runner) Figure11(ctx context.Context) (*report.Table, error) {
	return r.policyTable(ctx, "Figure 11: top Wr2-ratio static placement",
		core.Wr2Ratio{}, "paper: SER reduced 1.6x, IPC -1% vs perf-focused")
}
