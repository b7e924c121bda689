package experiments

import (
	"context"
	"strconv"
	"strings"

	"hmem/internal/core"
	"hmem/internal/migration"
	"hmem/internal/report"
	"hmem/internal/sim"
)

// Mechanism names: each is the memo key of one migrator configuration and
// the wire name a cluster worker rebuilds it from.
const (
	mechPerf = "perf-migration"
	mechFC   = "fc-reliability"
	mechCC   = "cc-reliability"
	// ablationPrefix names the Cross Counter variants of AblationCC.
	ablationPrefix = "ablation/"
	// intervalSuffix names Figure 13's perf migration at another interval:
	// "<cycles>-interval".
	intervalSuffix = "-interval"
)

// mechanismByName is the one table of migration mechanisms: it builds the
// migrator a name runs and the oracle placement that warm-starts it.
// Runner.start resolves every dynamic block's name here, on the node that
// asked for it or on a cluster worker executing its wire key. Unknown names
// report false.
//
// Reliability-aware mechanisms warm-start from the balanced oracle
// placement (§6.2: "an initial placement of the top hot and low-risk pages
// from our static oracular placement"); perf migration from the hot set
// ("we assume a good pre-measurement placement ... the top hot pages from
// our oracular static placement").
func mechanismByName(mech string, opts Options) (build func() sim.Migrator, warm core.Policy, ok bool) {
	ratio := int(opts.FCIntervalCycles / opts.MEAIntervalCycles)
	cc := func(entries int) *migration.CrossCounter {
		return migration.NewCrossCounter(opts.MEAIntervalCycles, ratio, entries)
	}
	switch mech {
	case mechPerf:
		return func() sim.Migrator { return migration.NewPerf(opts.FCIntervalCycles) }, core.PerfFocused{}, true
	case mechFC:
		return func() sim.Migrator { return migration.NewFullCounter(opts.FCIntervalCycles) }, core.Balanced{}, true
	case mechCC:
		return func() sim.Migrator { return cc(32) }, core.Balanced{}, true
	case ablationPrefix + "cc -blacklist":
		return func() sim.Migrator {
			m := cc(32)
			m.SetBlockEpochs(0)
			return m
		}, core.Balanced{}, true
	case ablationPrefix + "cc -hysteresis":
		return func() sim.Migrator {
			m := cc(32)
			m.SetEvictHysteresis(1.0)
			return m
		}, core.Balanced{}, true
	case ablationPrefix + "cc 8-entry MEA":
		return func() sim.Migrator { return cc(8) }, core.Balanced{}, true
	}
	if cycles, isInterval := strings.CutSuffix(mech, intervalSuffix); isInterval {
		iv, err := strconv.ParseInt(cycles, 10, 64)
		if err == nil && iv > 0 {
			return func() sim.Migrator { return migration.NewPerf(iv) }, core.PerfFocused{}, true
		}
	}
	return nil, nil, false
}

// Figure12 evaluates performance-focused migration against DDR-only and the
// static oracle (paper: IPC 1.52x vs DDR-only — 5.8% under static — and
// SER 268x vs DDR-only).
func (r *Runner) Figure12(ctx context.Context) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	cells, err := r.grid(ctx, ordered,
		comparison{profileBlock, perfMigBlock}, comparison{perfStaticBlock, perfMigBlock})
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 12: performance-focused migration",
		"workload", "IPC vs DDR-only", "SER vs DDR-only", "IPC vs static perf", "pages migrated")
	for s, spec := range ordered {
		ddr, static := cells[0][s], cells[1][s]
		t.AddRow(spec.Name, report.X(ddr.ipc), report.X(ddr.ser),
			report.X(static.ipc), report.Int(int(ddr.migrated)))
	}
	avg := means(cells)
	t.AddRow("average", report.X(avg[0].ipc), report.X(avg[0].ser), report.X(avg[1].ipc), "")
	t.Note = "paper: 1.52x IPC and 268x SER vs DDR-only; 5.8% under static placement"
	return t, nil
}

// Figure13 sweeps the migration interval on three workloads of different
// memory intensity to find the best interval (paper: 100 ms).
func (r *Runner) Figure13(ctx context.Context) (*report.Table, error) {
	base := r.opts.FCIntervalCycles
	intervals := []int64{base / 8, base / 4, base / 2, base, base * 2, base * 4}
	specs, err := resolveWorkloads([]string{"libquantum", "soplex", "astar"}) // high / medium / low intensity
	if err != nil {
		return nil, err
	}
	cmps := make([]comparison, len(intervals))
	for i, iv := range intervals {
		// The base interval is perf migration itself: run it under that
		// name so it shares the drivers' memo entry.
		cmps[i] = comparison{profileBlock, perfMigBlock}
		if iv != base {
			cmps[i].run = dynamicBlock(report.Int(int(iv)) + intervalSuffix)
		}
	}
	cells, err := r.grid(ctx, specs, cmps...)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 13: migration-interval sweep (perf-focused migration)",
		"interval (cycles)", "mean IPC vs DDR-only")
	bestIPC, bestIv := 0.0, int64(0)
	for i, avg := range means(cells) {
		if avg.ipc > bestIPC {
			bestIPC, bestIv = avg.ipc, intervals[i]
		}
		t.AddRow(report.Int(int(intervals[i])), report.X(avg.ipc))
	}
	t.Note = "best interval: " + report.Int(int(bestIv)) +
		" cycles (paper finds 100 ms best at full scale)"
	return t, nil
}

// dynamicTable renders a reliability-aware mechanism against the
// performance-focused migration baseline.
func (r *Runner) dynamicTable(ctx context.Context, title, mech, note string) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	cells, err := r.grid(ctx, ordered, comparison{perfMigBlock, dynamicBlock(mech)})
	if err != nil {
		return nil, err
	}
	t := report.New(title,
		"workload", "IPC vs perf-migration", "SER vs perf-migration", "pages migrated")
	for s, spec := range ordered {
		v := cells[0][s]
		t.AddRow(spec.Name, report.X(v.ipc), report.X(v.ser), report.Int(int(v.migrated)))
	}
	avg := means(cells)[0]
	t.AddRow("average", report.X(avg.ipc), report.X(avg.ser), "")
	t.Note = note
	return t, nil
}

// Figure14 is the Full Counter reliability-aware migration (paper: SER ÷1.8
// at 6% IPC loss vs perf-focused migration).
func (r *Runner) Figure14(ctx context.Context) (*report.Table, error) {
	return r.dynamicTable(ctx, "Figure 14: reliability-aware migration (Full Counters)",
		mechFC, "paper: SER reduced 1.8x at 6% IPC cost vs perf-focused migration")
}

// Figure15 is the Cross Counter mechanism (paper: SER ÷1.5 at 4.9% IPC loss
// with 676 KB of hardware).
func (r *Runner) Figure15(ctx context.Context) (*report.Table, error) {
	return r.dynamicTable(ctx, "Figure 15: reliability-aware migration (Cross Counters)",
		mechCC, "paper: SER reduced 1.5x at 4.9% IPC cost vs perf-focused migration")
}
