package experiments

import (
	"context"

	"hmem/internal/report"
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
	cells, err := r.grid(ctx, ordered,
		comparison{perfStaticBlock, annotationBlock},
		comparison{perfStaticBlock, dynamicBlock(mechFC)},
		comparison{perfStaticBlock, Block{Kind: BlockAnnotatedMigration}})
	if err != nil {
		return nil, err
	}
	t := report.New("Extension: annotations + reliability-aware migration (§7 future work)",
		"workload", "annot IPC", "annot SER", "FC IPC", "FC SER", "annot+FC IPC", "annot+FC SER")
	row := func(label string, vs ...ratios) {
		out := []string{label}
		for _, v := range vs {
			out = append(out, report.X(v.ipc), report.X(v.ser))
		}
		t.AddRow(out...)
	}
	for s, spec := range ordered {
		row(spec.Name, cells[0][s], cells[1][s], cells[2][s])
	}
	row("average", means(cells)...)
	t.Note = "IPC and SER relative to the perf-focused static oracle; the paper " +
		"conjectures the combination improves on annotation alone"
	return t, nil
}
