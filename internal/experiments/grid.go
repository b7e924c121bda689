package experiments

import (
	"context"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// comparison measures one block's run against a baseline block's on the
// same workload. Both blocks leave Workload empty; grid fills it per spec.
type comparison struct{ base, run Block }

// The blocks the comparison drivers name.
var (
	profileBlock    = Block{Kind: BlockProfile}
	perfStaticBlock = staticBlock(core.PerfFocused{})
	perfMigBlock    = dynamicBlock(mechPerf)
	annotationBlock = Block{Kind: BlockAnnotation}
)

func staticBlock(p core.Policy) Block { return Block{Kind: BlockStatic, Name: p.Name()} }

func dynamicBlock(mech string) Block { return Block{Kind: BlockDynamic, Name: mech} }

// ratios is one comparison on one workload: the run's IPC and SER as ratios
// to the baseline's, and the pages the run migrated. Against the profile
// (DDR-only) block the SER ratio is the run's own all-DDR ratio (serOf);
// against any other baseline it is the quotient of the two runs' SERs, or
// zero when the baseline's SER is zero.
type ratios struct {
	ipc, ser float64
	migrated uint64
}

// grid evaluates every comparison on every workload in one fan-out over
// the runner's worker pool. cells[c][s] is comparison c on specs[s].
func (r *Runner) grid(ctx context.Context, specs []workload.Spec, cmps ...comparison) ([][]ratios, error) {
	flat, err := exec.Map(ctx, r.opts.Parallel, len(cmps)*len(specs), func(i int) (ratios, error) {
		return r.compare(ctx, specs[i%len(specs)], cmps[i/len(specs)])
	})
	if err != nil {
		return nil, err
	}
	cells := make([][]ratios, len(cmps))
	for c := range cells {
		cells[c] = flat[c*len(specs) : (c+1)*len(specs)]
	}
	return cells, nil
}

// compare evaluates one comparison on spec.
func (r *Runner) compare(ctx context.Context, spec workload.Spec, c comparison) (ratios, error) {
	base, err := r.result(ctx, spec, c.base)
	if err != nil {
		return ratios{}, err
	}
	res, err := r.result(ctx, spec, c.run)
	if err != nil {
		return ratios{}, err
	}
	out := ratios{ipc: res.IPC / base.IPC, migrated: res.PagesMigrated}
	resSER, rel, err := serOf(res)
	if err != nil {
		return ratios{}, err
	}
	if c.base.Kind == BlockProfile {
		out.ser = rel
		return out, nil
	}
	baseSER, _, err := serOf(base)
	if err != nil {
		return ratios{}, err
	}
	if baseSER > 0 {
		out.ser = resSER / baseSER
	}
	return out, nil
}

// means averages each comparison of a grid over its workloads: geometric
// means of the ratios (stats.GeoMean skips non-positive ones) and the
// integer mean of the migrated pages.
func means(cells [][]ratios) []ratios {
	out := make([]ratios, len(cells))
	for c, col := range cells {
		ipcs, sers := make([]float64, len(col)), make([]float64, len(col))
		var migrated uint64
		for s, v := range col {
			ipcs[s], sers[s] = v.ipc, v.ser
			migrated += v.migrated
		}
		out[c] = ratios{ipc: stats.GeoMean(ipcs), ser: stats.GeoMean(sers)}
		if len(col) > 0 {
			out[c].migrated = migrated / uint64(len(col))
		}
	}
	return out
}
