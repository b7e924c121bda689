package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/migration"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/stats"
	"hmem/internal/workload"
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
// migrator a name runs and the oracle placement that warm-starts it. Every
// dynamic run resolves its mechanism here, on the node that asked for it or
// on a cluster worker executing its wire key. Unknown names report false.
//
// Reliability-aware mechanisms warm-start from the balanced oracle
// placement (§6.2: "an initial placement of the top hot and low-risk pages
// from our static oracular placement"); perf migration from the hot set.
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

// runMechanism runs the named mechanism of the table on spec (memoized by
// name).
func (r *Runner) runMechanism(ctx context.Context, spec workload.Spec, mech string) (sim.Result, error) {
	build, warm, ok := mechanismByName(mech, r.opts)
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: unresolvable mechanism %q", mech)
	}
	return r.RunDynamic(ctx, spec, mech, build, warm)
}

// Figure12 evaluates performance-focused migration against DDR-only and the
// static oracle (paper: IPC 1.52x vs DDR-only — 5.8% under static — and
// SER 268x vs DDR-only).
func (r *Runner) Figure12(ctx context.Context) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 12: performance-focused migration",
		"workload", "IPC vs DDR-only", "SER vs DDR-only", "IPC vs static perf", "pages migrated")
	type row struct {
		ipc, ser, vsStatic float64
		migrated           uint64
	}
	rows, err := mapSpecs(ctx, r, ordered, func(spec workload.Spec) (row, error) {
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return row{}, err
		}
		static, err := r.RunStatic(ctx, spec, core.PerfFocused{})
		if err != nil {
			return row{}, err
		}
		res, err := r.runMechanism(ctx, spec, mechPerf)
		if err != nil {
			return row{}, err
		}
		_, rel, err := serOf(res)
		if err != nil {
			return row{}, err
		}
		return row{
			ipc:      res.IPC / prof.Result.IPC,
			ser:      rel,
			vsStatic: res.IPC / static.IPC,
			migrated: res.PagesMigrated,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var ipcs, sers, vsStatic []float64
	for i, spec := range ordered {
		v := rows[i]
		ipcs = append(ipcs, v.ipc)
		sers = append(sers, v.ser)
		vsStatic = append(vsStatic, v.vsStatic)
		t.AddRow(spec.Name, report.X(v.ipc), report.X(v.ser),
			report.X(v.vsStatic), report.Int(int(v.migrated)))
	}
	t.AddRow("average", report.X(stats.GeoMean(ipcs)), report.X(stats.GeoMean(sers)),
		report.X(stats.GeoMean(vsStatic)), "")
	t.Note = "paper: 1.52x IPC and 268x SER vs DDR-only; 5.8% under static placement"
	return t, nil
}

// Figure13 sweeps the migration interval on three workloads of different
// memory intensity to find the best interval (paper: 100 ms).
func (r *Runner) Figure13(ctx context.Context) (*report.Table, error) {
	base := r.opts.FCIntervalCycles
	intervals := []int64{base / 8, base / 4, base / 2, base, base * 2, base * 4}
	names := []string{"libquantum", "soplex", "astar"} // high / medium / low intensity
	t := report.New("Figure 13: migration-interval sweep (perf-focused migration)",
		"interval (cycles)", "mean IPC vs DDR-only")
	// Flatten the interval × workload grid into one fan-out.
	n := len(intervals) * len(names)
	cells, err := exec.Map(ctx, r.opts.Parallel, n, func(i int) (float64, error) {
		iv := intervals[i/len(names)]
		spec, err := workload.SpecByName(names[i%len(names)])
		if err != nil {
			return 0, err
		}
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return 0, err
		}
		// The base interval is perf migration itself: run it under that
		// name so it shares the drivers' memo entry.
		mech := mechPerf
		if iv != base {
			mech = report.Int(int(iv)) + intervalSuffix
		}
		res, err := r.runMechanism(ctx, spec, mech)
		if err != nil {
			return 0, err
		}
		return res.IPC / prof.Result.IPC, nil
	})
	if err != nil {
		return nil, err
	}
	bestIPC, bestIv := 0.0, int64(0)
	for ii, iv := range intervals {
		mean := stats.GeoMean(cells[ii*len(names) : (ii+1)*len(names)])
		if mean > bestIPC {
			bestIPC, bestIv = mean, iv
		}
		t.AddRow(report.Int(int(iv)), report.X(mean))
	}
	t.Note = "best interval: " + report.Int(int(bestIv)) +
		" cycles (paper finds 100 ms best at full scale)"
	return t, nil
}

// relative is a run's IPC and SER as ratios to a baseline run's, and its
// migrated page count. hasSER is false, and ser zero, when the baseline's
// SER is zero.
type relative struct {
	ipc, ser float64
	hasSER   bool
	migrated uint64
}

// relativeTo compares res with base.
func relativeTo(base, res sim.Result) (relative, error) {
	baseSER, _, err := serOf(base)
	if err != nil {
		return relative{}, err
	}
	resSER, _, err := serOf(res)
	if err != nil {
		return relative{}, err
	}
	out := relative{ipc: res.IPC / base.IPC, migrated: res.PagesMigrated}
	if baseSER > 0 {
		out.ser, out.hasSER = resSER/baseSER, true
	}
	return out, nil
}

// vsPerfMigration runs mech on spec relative to perf migration (the §6
// normalization).
func (r *Runner) vsPerfMigration(ctx context.Context, spec workload.Spec, mech string) (relative, error) {
	perf, err := r.runMechanism(ctx, spec, mechPerf)
	if err != nil {
		return relative{}, err
	}
	res, err := r.runMechanism(ctx, spec, mech)
	if err != nil {
		return relative{}, err
	}
	return relativeTo(perf, res)
}

// dynamicTable renders a reliability-aware mechanism against the
// performance-focused migration baseline.
func (r *Runner) dynamicTable(ctx context.Context, title, mech, note string) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New(title,
		"workload", "IPC vs perf-migration", "SER vs perf-migration", "pages migrated")
	rows, err := mapSpecs(ctx, r, ordered, func(spec workload.Spec) (relative, error) {
		return r.vsPerfMigration(ctx, spec, mech)
	})
	if err != nil {
		return nil, err
	}
	var ipcs, sers []float64
	for i, spec := range ordered {
		v := rows[i]
		ipcs = append(ipcs, v.ipc)
		sers = append(sers, v.ser)
		t.AddRow(spec.Name, report.X(v.ipc), report.X(v.ser), report.Int(int(v.migrated)))
	}
	t.AddRow("average", report.X(stats.GeoMean(ipcs)), report.X(stats.GeoMean(sers)), "")
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
