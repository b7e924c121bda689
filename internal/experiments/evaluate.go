package experiments

import (
	"context"
	"fmt"

	"hmem/internal/core"
	"hmem/internal/exec"
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

// policyBlocks maps each policy to the block that answers it: the profile
// for DDR-only, a static block named by its core policy, a dynamic block
// named by the drivers' mechanism, or the annotation run. Every block but
// the profile also reads the workload's profile.
var policyBlocks = map[PolicyName]Block{
	PolicyDDROnly:            profileBlock,
	PolicyPerfFocused:        perfStaticBlock,
	PolicyReliabilityFocused: staticBlock(core.ReliabilityFocused{}),
	PolicyBalanced:           staticBlock(core.Balanced{}),
	PolicyWrRatio:            staticBlock(core.WrRatio{}),
	PolicyWr2Ratio:           staticBlock(core.Wr2Ratio{}),
	PolicyPerfMigration:      perfMigBlock,
	PolicyFCMigration:        dynamicBlock(mechFC),
	PolicyCCMigration:        dynamicBlock(mechCC),
	PolicyAnnotation:         annotationBlock,
}

// KnownPolicy reports whether Evaluate answers policy.
func KnownPolicy(policy PolicyName) bool {
	_, ok := policyBlocks[policy]
	return ok
}

// Known reports whether every block Evaluate(workloadName, policy) reads is
// finished or in flight, so that the evaluation starts no simulation of its
// own. Unknown policies report false.
func (r *Runner) Known(workloadName string, policy PolicyName) bool {
	b, ok := policyBlocks[policy]
	b.Workload = workloadName
	return ok && r.blocks.Known(Block{Kind: BlockProfile, Workload: workloadName}) && r.blocks.Known(b)
}

// Evaluate runs one workload under one policy and reports IPC/SER against
// the DDR-only baseline. The policy's block is the drivers' own, so an
// evaluation and a figure share every simulation.
func (r *Runner) Evaluate(ctx context.Context, workloadName string, policy PolicyName) (Result, error) {
	spec, err := workload.SpecByName(workloadName)
	if err != nil {
		return Result{}, err
	}
	b, ok := policyBlocks[policy]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown policy %q", policy)
	}
	prof, err := r.ProfileOf(ctx, spec)
	if err != nil {
		return Result{}, err
	}
	res, err := r.result(ctx, spec, b)
	if err != nil {
		return Result{}, err
	}

	_, rel, err := serOf(res)
	if err != nil {
		return Result{}, err
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

// Compare evaluates several policies on one workload concurrently on the
// runner's worker pool, returning the results in policy order. The profile
// runs first, so the evaluations share the warm memo instead of all
// blocking on the same in-flight profile.
func (r *Runner) Compare(ctx context.Context, workloadName string, policies []PolicyName) ([]Result, error) {
	spec, err := workload.SpecByName(workloadName)
	if err != nil {
		return nil, err
	}
	if _, err := r.ProfileOf(ctx, spec); err != nil {
		return nil, err
	}
	return exec.Map(ctx, r.opts.Parallel, len(policies), func(i int) (Result, error) {
		return r.Evaluate(ctx, workloadName, policies[i])
	})
}
