package experiments

import (
	"context"

	"hmem/internal/annotate"
	"hmem/internal/core"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// ExtensionAnnotatedMigration evaluates the paper's closing suggestion
// (§7): "Supplementing such an annotation-driven static data placement
// scheme with a reliability-aware migration mechanism could potentially
// further improve the overall reliability of the system." Annotated
// structures stay pinned in HBM while the Full Counter mechanism manages
// the remaining frames dynamically. Compared against annotation-only and
// FC-only on every workload, all relative to the perf-focused static
// oracle.
func (r *Runner) ExtensionAnnotatedMigration(ctx context.Context) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension: annotations + reliability-aware migration (§7 future work)",
		"workload", "annot IPC", "annot SER", "FC IPC", "FC SER", "annot+FC IPC", "annot+FC SER")

	// One row holds annotation, FC and annotation+FC, each relative to the
	// perf-focused static oracle.
	rows, err := mapSpecs(ctx, r, ordered, func(spec workload.Spec) ([3]relative, error) {
		var out [3]relative
		perf, err := r.RunStatic(ctx, spec, core.PerfFocused{})
		if err != nil {
			return out, err
		}
		annot, _, err := r.annotationRun(ctx, spec)
		if err != nil {
			return out, err
		}
		fc, err := r.runMechanism(ctx, spec, mechFC)
		if err != nil {
			return out, err
		}
		combined, err := r.annotatedMigrationRun(ctx, spec)
		if err != nil {
			return out, err
		}
		for i, res := range []sim.Result{annot, fc, combined} {
			if out[i], err = relativeTo(perf, res); err != nil {
				return out, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var ipcs, sers [3][]float64
	for i, spec := range ordered {
		cells := []string{spec.Name}
		for j, v := range rows[i] {
			ipcs[j], sers[j] = append(ipcs[j], v.ipc), append(sers[j], v.ser)
			cells = append(cells, report.X(v.ipc), report.X(v.ser))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average"}
	for j := range ipcs {
		avg = append(avg, report.X(stats.GeoMean(ipcs[j])), report.X(stats.GeoMean(sers[j])))
	}
	t.AddRow(avg...)
	t.Note = "IPC and SER relative to the perf-focused static oracle; the paper " +
		"conjectures the combination improves on annotation alone"
	return t, nil
}

// annotatedMigrationRun pins the annotated structures and lets the FC
// mechanism manage the remaining HBM frames.
func (r *Runner) annotatedMigrationRun(ctx context.Context, spec workload.Spec) (sim.Result, error) {
	return r.runs.DoCtx(ctx, "annotation+fc/"+spec.Name, func() (sim.Result, error) {
		// Background, not ctx: the computation is shared once started and a
		// cached ctx.Err() would poison the key (see Memo.DoCtx).
		prof, err := r.ProfileOf(context.Background(), spec)
		if err != nil {
			return sim.Result{}, err
		}
		// Pin annotations into at most half of HBM so the migration mechanism
		// has frames to work with.
		_, pins := annotate.Select(prof.Structures, prof.Stats, int(r.cfg.FastPages())/2)
		build, _, _ := mechanismByName(mechFC, r.opts)
		res, _, err := r.simulate(context.Background(), spec, pins, true, build())
		if err != nil {
			return sim.Result{}, err
		}
		return r.score(context.Background(), res)
	})
}
