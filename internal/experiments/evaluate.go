package experiments

import (
	"context"
	"fmt"

	"hmem/internal/core"
	"hmem/internal/obs"
	"hmem/internal/sim"
	"hmem/internal/workload"
)

// PolicyName selects one of the paper's placement schemes.
type PolicyName string

// The available schemes. The first six are static (profile-guided); the
// last three are dynamic migration mechanisms.
const (
	PolicyDDROnly            PolicyName = "ddr-only"
	PolicyPerfFocused        PolicyName = "perf-focused"
	PolicyReliabilityFocused PolicyName = "reliability-focused"
	PolicyBalanced           PolicyName = "balanced"
	PolicyWrRatio            PolicyName = "wr-ratio"
	PolicyWr2Ratio           PolicyName = "wr2-ratio"
	PolicyPerfMigration      PolicyName = "perf-migration"
	PolicyFCMigration        PolicyName = "fc-migration"
	PolicyCCMigration        PolicyName = "cc-migration"
	PolicyAnnotation         PolicyName = "annotation"
)

// Result summarizes one workload x policy evaluation. The JSON field names
// are the hmemd service's wire format; encoding/json emits them in struct
// order, so the encoding of a Result is byte-deterministic.
type Result struct {
	Workload string     `json:"workload"`
	Policy   PolicyName `json:"policy"`
	// IPC is the absolute per-core IPC; the vs fields are ratios against
	// the same workload's baselines.
	IPC           float64 `json:"ipc"`
	IPCvsDDROnly  float64 `json:"ipc_vs_ddr_only"`
	SERvsDDROnly  float64 `json:"ser_vs_ddr_only"`
	MeanAVF       float64 `json:"mean_avf"`
	PagesMigrated uint64  `json:"pages_migrated"`
	// Endurance reports per-tier wear counters and is present only when the
	// evaluation's topology declares a write budget on some tier (e.g. the
	// built-in dram-nvm scenario); the default hbm-ddr topology omits it, so
	// existing result encodings are unchanged.
	Endurance []sim.TierEndurance `json:"endurance,omitempty"`
}

// Evaluate runs one workload under one policy and reports IPC/SER against
// the DDR-only baseline. The dynamic policies run the drivers' mechanisms
// under the drivers' memo names, so an evaluation and a figure share every
// simulation. When ctx carries a registry the evaluation's IPC (and, on
// write-budgeted topologies, its wear) is exported as gauges.
func (r *Runner) Evaluate(ctx context.Context, workloadName string, policy PolicyName) (Result, error) {
	spec, err := workload.SpecByName(workloadName)
	if err != nil {
		return Result{}, err
	}
	prof, err := r.ProfileOf(ctx, spec)
	if err != nil {
		return Result{}, err
	}

	var res sim.Result
	switch policy {
	case PolicyDDROnly:
		res = prof.Result
	case PolicyPerfFocused:
		res, err = r.RunStatic(ctx, spec, core.PerfFocused{})
	case PolicyReliabilityFocused:
		res, err = r.RunStatic(ctx, spec, core.ReliabilityFocused{})
	case PolicyBalanced:
		res, err = r.RunStatic(ctx, spec, core.Balanced{})
	case PolicyWrRatio:
		res, err = r.RunStatic(ctx, spec, core.WrRatio{})
	case PolicyWr2Ratio:
		res, err = r.RunStatic(ctx, spec, core.Wr2Ratio{})
	case PolicyPerfMigration:
		res, err = r.runMechanism(ctx, spec, mechPerf)
	case PolicyFCMigration:
		res, err = r.runMechanism(ctx, spec, mechFC)
	case PolicyCCMigration:
		res, err = r.runMechanism(ctx, spec, mechCC)
	case PolicyAnnotation:
		res, err = r.RunAnnotation(ctx, spec)
	default:
		return Result{}, fmt.Errorf("experiments: unknown policy %q", policy)
	}
	if err != nil {
		return Result{}, err
	}

	_, rel, err := serOf(res)
	if err != nil {
		return Result{}, err
	}
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.GaugeVec("hmem_workload_ipc",
			"Simulated per-core IPC of the latest evaluation.",
			"workload", "policy").With(workloadName, string(policy)).Set(res.IPC)
		// Endurance families are registered lazily so default-topology
		// processes keep their /metrics output unchanged.
		for _, e := range res.Endurance {
			reg.GaugeVec("hmem_tier_writes_total",
				"Writes absorbed by a write-budgeted tier in the latest evaluation.",
				"workload", "policy", "tier").
				With(workloadName, string(policy), e.Name).Set(float64(e.TotalWrites))
			reg.GaugeVec("hmem_tier_exhausted_frames",
				"Frames past their write budget in the latest evaluation.",
				"workload", "policy", "tier").
				With(workloadName, string(policy), e.Name).Set(float64(e.ExhaustedFrames))
		}
	}
	return Result{
		Workload:      workloadName,
		Policy:        policy,
		IPC:           res.IPC,
		IPCvsDDROnly:  res.IPC / prof.Result.IPC,
		SERvsDDROnly:  rel,
		MeanAVF:       res.MeanAVF,
		PagesMigrated: res.PagesMigrated,
		Endurance:     res.Endurance,
	}, nil
}
