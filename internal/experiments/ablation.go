package experiments

import (
	"context"

	"hmem/internal/exec"
	"hmem/internal/report"
	"hmem/internal/stats"
	"hmem/internal/workload"
)

// AblationCC quantifies the two design choices in this reproduction's Cross
// Counter implementation (DESIGN.md §6):
//
//   - the epoch blacklist — the reliability unit vetoes re-admission of a
//     page it flushed as high-risk for a few epochs, so hot high-risk pages
//     don't bounce back one MEA interval after every flush;
//   - eviction hysteresis — a resident is flushed only when its Wr/Rd falls
//     below half the epoch mean, so a uniformly low-risk HBM population
//     doesn't churn against its own mean.
//
// Each variant reports IPC and SER relative to the performance-focused
// migration baseline on a three-workload panel. The full mechanism is
// Figure 15's and shares its runs.
func (r *Runner) AblationCC(ctx context.Context) (*report.Table, error) {
	panel := []string{"astar", "mcf", "mix1"}
	variants := []struct{ name, mech string }{
		{"cc (full)", mechCC},
		{"cc -blacklist", ablationPrefix + "cc -blacklist"},
		{"cc -hysteresis", ablationPrefix + "cc -hysteresis"},
		{"cc 8-entry MEA", ablationPrefix + "cc 8-entry MEA"},
	}

	t := report.New("Ablation: Cross Counter design choices",
		"variant", "IPC vs perf-migration", "SER vs perf-migration", "pages migrated (avg)")
	// Flatten the variant × workload panel into one fan-out, then regroup
	// per variant.
	n := len(variants) * len(panel)
	cells, err := exec.Map(ctx, r.opts.Parallel, n, func(i int) (relative, error) {
		spec, err := workload.SpecByName(panel[i%len(panel)])
		if err != nil {
			return relative{}, err
		}
		return r.vsPerfMigration(ctx, spec, variants[i/len(panel)].mech)
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var ipcs, sers []float64
		var migrated uint64
		for pi := range panel {
			c := cells[vi*len(panel)+pi]
			ipcs = append(ipcs, c.ipc)
			if c.hasSER {
				sers = append(sers, c.ser)
			}
			migrated += c.migrated
		}
		t.AddRow(v.name, report.X(stats.GeoMean(ipcs)), report.X(stats.GeoMean(sers)),
			report.Int(int(migrated/uint64(len(panel)))))
	}
	t.Note = "the blacklist is what converts eviction work into SER reduction; " +
		"hysteresis suppresses self-churn of a low-risk resident set"
	return t, nil
}
