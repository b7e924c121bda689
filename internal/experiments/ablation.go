package experiments

import (
	"context"

	"hmem/internal/report"
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
	variants := []struct{ name, mech string }{
		{"cc (full)", mechCC},
		{"cc -blacklist", ablationPrefix + "cc -blacklist"},
		{"cc -hysteresis", ablationPrefix + "cc -hysteresis"},
		{"cc 8-entry MEA", ablationPrefix + "cc 8-entry MEA"},
	}

	specs, err := resolveWorkloads([]string{"astar", "mcf", "mix1"})
	if err != nil {
		return nil, err
	}
	cmps := make([]comparison, len(variants))
	for i, v := range variants {
		cmps[i] = comparison{perfMigBlock, dynamicBlock(v.mech)}
	}
	cells, err := r.grid(ctx, specs, cmps...)
	if err != nil {
		return nil, err
	}
	t := report.New("Ablation: Cross Counter design choices",
		"variant", "IPC vs perf-migration", "SER vs perf-migration", "pages migrated (avg)")
	for i, avg := range means(cells) {
		t.AddRow(variants[i].name, report.X(avg.ipc), report.X(avg.ser), report.Int(int(avg.migrated)))
	}
	t.Note = "the blacklist is what converts eviction work into SER reduction; " +
		"hysteresis suppresses self-churn of a low-risk resident set"
	return t, nil
}
