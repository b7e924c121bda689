package experiments

import (
	"context"
	"fmt"

	"hmem/internal/obs"
	"hmem/internal/report"
)

// Named is a labeled experiment. Run honours the requester semantics of the
// runner's building blocks: cancellation stops new simulations from starting
// but never interrupts (or poisons the cache of) one already in flight.
type Named struct {
	ID  string
	Run func(ctx context.Context) (*report.Table, error)
}

// All returns every table and figure driver in paper order. Listing them
// builds nothing: even the static tables are rendered only when run.
func (r *Runner) All() []Named {
	wrap := func(build func() *report.Table) func(context.Context) (*report.Table, error) {
		return func(context.Context) (*report.Table, error) { return build(), nil }
	}
	return []Named{
		{"table1", wrap(r.Table1)},
		{"table2", wrap(r.Table2)},
		{"figure1", r.Figure1},
		{"figure2", r.Figure2},
		{"figure4", r.Figure4},
		{"figure5", r.Figure5},
		{"figure6", r.Figure6},
		{"figure7", r.Figure7},
		{"figure8", r.Figure8},
		{"figure9", r.Figure9},
		{"figure10", r.Figure10},
		{"figure11", r.Figure11},
		{"figure12", r.Figure12},
		{"figure13", r.Figure13},
		{"figure14", r.Figure14},
		{"figure15", r.Figure15},
		{"figure16", r.Figure16},
		{"figure17", r.Figure17},
		{"table3", r.Table3},
		{"hwcost", wrap(r.TableHardwareCost)},
		{"ablation-cc", r.AblationCC},
		{"extension-annotated-migration", r.ExtensionAnnotatedMigration},
		{"extension-tiered-endurance", r.ExtensionTieredEndurance},
	}
}

// ByID returns the named experiment, or false when unknown.
func (r *Runner) ByID(id string) (Named, bool) {
	for _, n := range r.All() {
		if n.ID == id {
			return n, true
		}
	}
	return Named{}, false
}

// ExperimentIDs lists the ids of All, in paper order.
func (r *Runner) ExperimentIDs() []string {
	var ids []string
	for _, n := range r.All() {
		ids = append(ids, n.ID)
	}
	return ids
}

// RunExperiment regenerates one table or figure by id. When ctx carries a
// tracer the whole driver runs under an "experiment.<id>" span.
func (r *Runner) RunExperiment(ctx context.Context, id string) (*report.Table, error) {
	exp, ok := r.ByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	if obs.Enabled(ctx) {
		var sp *obs.Span
		ctx, sp = obs.Start(ctx, "experiment."+id)
		defer sp.End()
	}
	return exp.Run(ctx)
}
