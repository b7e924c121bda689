package experiments

import (
	"context"

	"hmem/internal/core"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/workload"
)

// ExtensionTieredEndurance exercises the built-in three-tier DRAM–NVM
// topology end to end: first-touch allocation fills the DRAM middle tier and
// spills to the endurance-limited NVM capacity tier, while the Cross-Counter
// mechanism promotes hot pages into HBM. For each workload it reports the
// first-touch baseline and the migrating run — IPC, SER against the
// everything-in-NVM baseline, the fast-tier access share, and the NVM wear
// counters (total writes, peak per-frame writes, frames past the write
// budget). When the runner is already configured for the dram-nvm topology
// the runs share its memos; otherwise a sub-runner with identical options is
// used so the driver can ride along in a default-topology suite. The
// sub-runner shares the runner's trace wrap and fault-study store, so with
// a store installed it reuses the DDR and HBM studies of hbm-ddr runners.
func (r *Runner) ExtensionTieredEndurance(ctx context.Context) (*report.Table, error) {
	tr := r
	if r.opts.Topology != core.DRAMNVMTopologyName {
		opts := r.opts
		opts.Topology = core.DRAMNVMTopologyName
		sub, err := NewRunner(opts)
		if err != nil {
			return nil, err
		}
		// Not the delegate: its shards carry the digest of r's options.
		sub.SetStudyStore(r.studies.Load())
		sub.SetTraceWrap(r.getTraceWrap())
		tr = sub
	}
	// Cap the sweep: the driver demonstrates the scenario, it is not a
	// figure reproduction, and three-tier runs pay the NVM latency.
	specs := tr.specs
	if len(specs) > 3 {
		specs = specs[:3]
	}

	type row struct {
		scheme  string
		res     sim.Result
		serRel  float64
		ipcBase float64
	}
	perSpec, err := mapSpecs(ctx, tr, specs, func(spec workload.Spec) ([2]row, error) {
		prof, err := tr.ProfileOf(ctx, spec)
		if err != nil {
			return [2]row{}, err
		}
		dyn, err := tr.result(ctx, spec, dynamicBlock(mechCC))
		if err != nil {
			return [2]row{}, err
		}
		out := [2]row{
			{scheme: "first-touch", res: prof.Result, ipcBase: prof.Result.IPC},
			{scheme: "cc-migration", res: dyn, ipcBase: prof.Result.IPC},
		}
		for i := range out {
			if _, rel, err := serOf(out[i].res); err == nil {
				out[i].serRel = rel
			} else {
				return [2]row{}, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	topo := tr.Topology()
	t := report.New("Extension: three-tier DRAM-NVM with endurance accounting",
		"workload", "scheme", "IPC", "IPC vs first-touch", "SER vs all-"+topo.TierName(0),
		topo.TierName(topo.FastTier)+" access share",
		"NVM writes", "NVM max frame writes", "NVM exhausted frames")
	for i, spec := range specs {
		for _, rw := range perSpec[i] {
			wear := nvmWear(rw.res)
			t.AddRow(spec.Name, rw.scheme,
				report.F(rw.res.IPC, 3),
				report.X(rw.res.IPC/rw.ipcBase),
				report.X(rw.serRel),
				report.F(rw.res.HBMAccessFraction, 3),
				report.Int(int(wear.TotalWrites)),
				report.Int(int(wear.MaxFrameWrites)),
				report.Int(int(wear.ExhaustedFrames)))
		}
	}
	t.Note = "NVM wear from per-frame write counters against the topology's write budget (" +
		report.Int(int(topo.Tiers[0].WriteBudget)) + " writes/frame)"
	return t, nil
}

// nvmWear extracts the endurance summary of the (single) write-budgeted
// tier, zero-valued when the run carried none.
func nvmWear(res sim.Result) sim.TierEndurance {
	for _, e := range res.Endurance {
		return e
	}
	return sim.TierEndurance{}
}
