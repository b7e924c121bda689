package experiments

import (
	"context"

	"hmem/internal/annotate"
	"hmem/internal/core"
	"hmem/internal/migration"
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

	type row struct {
		ai, as, fi, fs, ci, cs float64
	}
	rows, err := mapSpecs(ctx, r, ordered, func(spec workload.Spec) (row, error) {
		perf, err := r.RunStatic(ctx, spec, core.PerfFocused{})
		if err != nil {
			return row{}, err
		}
		perfSER, _, err := r.SEROf(ctx, perf)
		if err != nil {
			return row{}, err
		}
		norm := func(res sim.Result) (float64, float64, error) {
			resSER, _, err := r.SEROf(ctx, res)
			if err != nil {
				return 0, 0, err
			}
			serRatio := 0.0
			if perfSER > 0 {
				serRatio = resSER / perfSER
			}
			return res.IPC / perf.IPC, serRatio, nil
		}

		annot, _, err := r.annotationRun(ctx, spec)
		if err != nil {
			return row{}, err
		}
		fc, err := r.fcMigration(ctx, spec)
		if err != nil {
			return row{}, err
		}
		combined, err := r.annotatedMigrationRun(ctx, spec)
		if err != nil {
			return row{}, err
		}

		var out row
		if out.ai, out.as, err = norm(annot); err != nil {
			return row{}, err
		}
		if out.fi, out.fs, err = norm(fc); err != nil {
			return row{}, err
		}
		if out.ci, out.cs, err = norm(combined); err != nil {
			return row{}, err
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var aIPC, aSER, fIPC, fSER, cIPC, cSER []float64
	for i, spec := range ordered {
		v := rows[i]
		aIPC, aSER = append(aIPC, v.ai), append(aSER, v.as)
		fIPC, fSER = append(fIPC, v.fi), append(fSER, v.fs)
		cIPC, cSER = append(cIPC, v.ci), append(cSER, v.cs)
		t.AddRow(spec.Name, report.X(v.ai), report.X(v.as), report.X(v.fi), report.X(v.fs),
			report.X(v.ci), report.X(v.cs))
	}
	t.AddRow("average",
		report.X(stats.GeoMean(aIPC)), report.X(stats.GeoMean(aSER)),
		report.X(stats.GeoMean(fIPC)), report.X(stats.GeoMean(fSER)),
		report.X(stats.GeoMean(cIPC)), report.X(stats.GeoMean(cSER)))
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
		res, _, err := r.simulate(context.Background(), spec, pins, true,
			migration.NewFullCounter(r.opts.FCIntervalCycles))
		return res, err
	})
}
