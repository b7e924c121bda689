package experiments

import (
	"context"

	"hmem/internal/annotate"
	"hmem/internal/core"
	"hmem/internal/report"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// annotations selects the structures to annotate from a workload's profile,
// with the pages they pin into HBM.
func (r *Runner) annotations(prof *Profile) ([]annotate.Annotation, []uint64) {
	return annotate.Select(prof.Structures, prof.Stats, int(r.cfg.FastPages()))
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
		relative
		pinned int
	}
	rows, err := mapSpecs(ctx, r, ordered, func(spec workload.Spec) (row, error) {
		perf, err := r.result(ctx, spec, BlockStatic, core.PerfFocused{}.Name())
		if err != nil {
			return row{}, err
		}
		res, err := r.result(ctx, spec, BlockAnnotation, "")
		if err != nil {
			return row{}, err
		}
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return row{}, err
		}
		_, pins := r.annotations(prof)
		vs, err := relativeTo(perf, res)
		if err != nil {
			return row{}, err
		}
		return row{relative: vs, pinned: len(pins)}, nil
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
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return row{}, err
		}
		ann, pins := r.annotations(prof)
		return row{count: annotate.Count(ann), pinned: len(pins)}, nil
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
