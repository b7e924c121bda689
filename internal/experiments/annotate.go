package experiments

import (
	"context"

	"hmem/internal/annotate"
	"hmem/internal/core"
	"hmem/internal/obs"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// annotationRun performs the §7 experiment for one workload: profile, pick
// structures to annotate, pin their pages, and run with migrations disabled
// for pinned pages (here: no migrator at all, matching the paper's static
// annotation evaluation).
func (r *Runner) annotationRun(ctx context.Context, spec workload.Spec) (sim.Result, []annotate.Annotation, error) {
	prof, err := r.ProfileOf(ctx, spec)
	if err != nil {
		return sim.Result{}, nil, err
	}
	ann, pins := annotate.Select(prof.Structures, prof.Stats, int(r.cfg.FastPages()))

	res, err := r.runs.DoCtx(ctx, "annotation/"+spec.Name, func() (sim.Result, error) {
		// Delegable: a worker re-derives the same pins from its own
		// (bit-identical) profile, so only the result crosses the wire.
		if p, ok, err := r.delegateBlock(obs.Detach(ctx), BlockKey{Kind: BlockAnnotation, Workload: spec.Name}); err != nil {
			return sim.Result{}, err
		} else if ok {
			return p.Result, nil
		}
		res, _, err := r.simulate(context.Background(), spec, pins, true, nil)
		return res, err
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	return res, ann, nil
}

// RunAnnotation exposes the §7 annotation run for the facade.
func (r *Runner) RunAnnotation(ctx context.Context, spec workload.Spec) (sim.Result, error) {
	res, _, err := r.annotationRun(ctx, spec)
	return res, err
}

// Figure16 compares annotation-based placement against the perf-focused
// static oracle (paper: SER ÷1.3 at 1.1% IPC cost).
func (r *Runner) Figure16(ctx context.Context) (*report.Table, error) {
	ordered, err := r.byMPKIDesc(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 16: program-annotation placement",
		"workload", "IPC vs perf-focused", "SER vs perf-focused", "pinned pages")
	type row struct {
		ipc, ser float64
		pinned   int
	}
	rows, err := mapSpecs(ctx, r, ordered, func(spec workload.Spec) (row, error) {
		perf, err := r.RunStatic(ctx, spec, core.PerfFocused{})
		if err != nil {
			return row{}, err
		}
		res, ann, err := r.annotationRun(ctx, spec)
		if err != nil {
			return row{}, err
		}
		perfSER, _, err := r.SEROf(ctx, perf)
		if err != nil {
			return row{}, err
		}
		resSER, _, err := r.SEROf(ctx, res)
		if err != nil {
			return row{}, err
		}
		pinned := 0
		for _, a := range ann {
			pinned += len(a.Pages)
		}
		out := row{ipc: res.IPC / perf.IPC, pinned: pinned}
		if perfSER > 0 {
			out.ser = resSER / perfSER
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var ipcs, sers []float64
	for i, spec := range ordered {
		ipcs = append(ipcs, rows[i].ipc)
		sers = append(sers, rows[i].ser)
		t.AddRow(spec.Name, report.X(rows[i].ipc), report.X(rows[i].ser), report.Int(rows[i].pinned))
	}
	t.AddRow("average", report.X(stats.GeoMean(ipcs)), report.X(stats.GeoMean(sers)), "")
	t.Note = "paper: SER reduced 1.3x at 1.1% IPC cost vs perf-focused placement"
	return t, nil
}

// Figure17 counts how many structures must be annotated per workload
// (paper: 1-6 for most, 39/45 for cactusADM/mix1, average 8).
func (r *Runner) Figure17(ctx context.Context) (*report.Table, error) {
	t := report.New("Figure 17: number of annotated program structures",
		"workload", "annotations", "pages pinned")
	specs := r.Workloads()
	type row struct{ count, pinned int }
	rows, err := mapSpecs(ctx, r, specs, func(spec workload.Spec) (row, error) {
		_, ann, err := r.annotationRun(ctx, spec)
		if err != nil {
			return row{}, err
		}
		pinned := 0
		for _, a := range ann {
			pinned += len(a.Pages)
		}
		return row{count: annotate.Count(ann), pinned: pinned}, nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	n := 0
	for i, spec := range specs {
		t.AddRow(spec.Name, report.Int(rows[i].count), report.Int(rows[i].pinned))
		total += rows[i].count
		n++
	}
	if n > 0 {
		t.Note = "average " + report.F(float64(total)/float64(n), 1) +
			" annotations (paper: 8 on average, 1-6 for most workloads)"
	}
	return t, nil
}
