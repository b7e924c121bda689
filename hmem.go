// Package hmem is a from-scratch reproduction of "Reliability-Aware Data
// Placement for Heterogeneous Memory Architecture" (Gupta et al., HPCA
// 2018): a full simulation stack for studying how page placement across a
// fast-but-fragile HBM tier and a slow-but-safe DDR tier trades performance
// (IPC) against reliability (soft error rate), plus the paper's static
// placement policies, AVF heuristics, dynamic migration mechanisms, and
// program-annotation pinning.
//
// The facade below exposes the common workflows; the full machinery lives in
// the internal packages (see DESIGN.md for the system inventory):
//
//	workload   synthetic SPEC-like 16-core trace generation (Table 2
//	           mixes), emitting post-LLC traffic directly
//	memsim     cycle-level two-tier DRAM timing (Table 1 configuration)
//	avf        per-cache-line ACE tracking, per-page AVF
//	ecc        SEC-DED(72,64) and RS(18,16) ChipKill codecs
//	faultsim   Monte-Carlo DRAM fault studies (FIT -> uncorrectable rates)
//	core       hotness/risk statistics, quadrants, placement policies, SER
//	mea        Misra-Gries hot-page tracking (MemPod-style)
//	migration  perf-focused, Full Counter, and Cross Counter mechanisms
//	annotate   program-structure annotation and pinning
//	sim        the 16-core full-system simulator
//	exec       singleflight memoization + bounded deterministic worker pool
//	experiments one driver per paper table/figure
//
// A minimal session:
//
//	res, err := hmem.Evaluate(ctx, "mix1", hmem.PolicyWr2Ratio, nil)
//	fmt.Printf("IPC gain %.2fx, SER %.0fx of DDR-only\n",
//		res.IPCvsDDROnly, res.SERvsDDROnly)
//
// Long-lived callers hold an Engine instead, which shares one memoized
// runner across every call.
package hmem

import (
	"context"

	"hmem/internal/core"
	"hmem/internal/experiments"
	"hmem/internal/report"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// PolicyName selects one of the paper's placement schemes.
type PolicyName = experiments.PolicyName

// The available schemes. The first six are static (profile-guided); the
// last three are dynamic migration mechanisms.
const (
	PolicyDDROnly            = experiments.PolicyDDROnly
	PolicyPerfFocused        = experiments.PolicyPerfFocused
	PolicyReliabilityFocused = experiments.PolicyReliabilityFocused
	PolicyBalanced           = experiments.PolicyBalanced
	PolicyWrRatio            = experiments.PolicyWrRatio
	PolicyWr2Ratio           = experiments.PolicyWr2Ratio
	PolicyPerfMigration      = experiments.PolicyPerfMigration
	PolicyFCMigration        = experiments.PolicyFCMigration
	PolicyCCMigration        = experiments.PolicyCCMigration
	PolicyAnnotation         = experiments.PolicyAnnotation
)

// Policies lists every scheme name.
func Policies() []PolicyName {
	return []PolicyName{
		PolicyDDROnly, PolicyPerfFocused, PolicyReliabilityFocused,
		PolicyBalanced, PolicyWrRatio, PolicyWr2Ratio,
		PolicyPerfMigration, PolicyFCMigration, PolicyCCMigration,
		PolicyAnnotation,
	}
}

// Workloads lists the evaluated workload names: nine homogeneous benchmarks
// and the five Table 2 mixes. Any of the 17 benchmark names is also accepted
// by Evaluate as a homogeneous workload.
func Workloads() []string {
	var out []string
	for _, s := range workload.AllSpecs() {
		out = append(out, s.Name)
	}
	return out
}

// Benchmarks lists all benchmark profile names.
func Benchmarks() []string { return workload.Names() }

// Options tunes an evaluation; the zero value uses the defaults from the
// experiments package (1/64 capacity scale, 40 K records/core).
type Options = experiments.Options

// TraceStream is the per-core trace interface, re-exported for the hmemd
// service's trace-wrap fault-injection seam.
type TraceStream = trace.Stream

// Result summarizes one workload x policy evaluation; its JSON encoding is
// the hmemd service's wire format.
type Result = experiments.Result

// Evaluate runs one workload under one policy and reports IPC/SER against
// the DDR-only baseline. opts may be nil for defaults. Cancelling ctx stops
// new simulations from starting; one already in flight runs to completion
// (simulations have no preemption points) and its result is discarded.
func Evaluate(ctx context.Context, workloadName string, policy PolicyName, opts *Options) (Result, error) {
	e, err := NewEngine(opts)
	if err != nil {
		return Result{}, err
	}
	return e.Evaluate(ctx, workloadName, policy)
}

// TierSummary describes one tier of a topology for discovery endpoints.
type TierSummary struct {
	Name        string `json:"name"`
	Mem         string `json:"mem"`
	Pages       uint64 `json:"pages"`
	WriteBudget uint64 `json:"write_budget,omitempty"`
}

// TopologySummary describes a selectable topology: its tiers in index order,
// which is the fast (migration-target) tier, and the first-touch allocation
// order.
type TopologySummary struct {
	Name       string        `json:"name"`
	Tiers      []TierSummary `json:"tiers"`
	FastTier   int           `json:"fast_tier"`
	AllocOrder []int         `json:"alloc_order"`
}

// DescribeTopologies summarizes every selectable topology at the given
// capacity scale (0 = the default experiment scale).
func DescribeTopologies(scaleDiv int) ([]TopologySummary, error) {
	if scaleDiv <= 0 {
		scaleDiv = experiments.DefaultOptions().ScaleDiv
	}
	var out []TopologySummary
	for _, name := range core.TopologyNames() {
		topo, err := core.TopologyByName(name, scaleDiv)
		if err != nil {
			return nil, err
		}
		s := TopologySummary{Name: topo.Name, FastTier: topo.FastTier,
			AllocOrder: append([]int(nil), topo.AllocOrder...)}
		for _, td := range topo.Tiers {
			s.Tiers = append(s.Tiers, TierSummary{
				Name:        td.Name,
				Mem:         td.Mem.Name,
				Pages:       td.Mem.CapacityBytes / 4096,
				WriteBudget: td.WriteBudget,
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// RegisterTopologyJSON parses, validates, and registers a custom topology so
// Options.Topology can select it by name. Capacities in the file are taken
// as-is; Options.ScaleDiv does not rescale custom topologies. Returns the
// registered name.
func RegisterTopologyJSON(data []byte) (string, error) {
	topo, err := core.ParseTopology(data)
	if err != nil {
		return "", err
	}
	if err := core.RegisterTopology(topo); err != nil {
		return "", err
	}
	return topo.Name, nil
}

// Compare evaluates several policies on one workload with shared profiling
// (much cheaper than repeated Evaluate calls). The policies run concurrently
// on the runner's worker pool (Options.Parallel, default NumCPU); results are
// returned in input order and are identical to serial evaluation.
func Compare(ctx context.Context, workloadName string, policies []PolicyName, opts *Options) ([]Result, error) {
	e, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.Compare(ctx, workloadName, policies)
}

// Engine is a long-lived evaluation session: one memoized experiment runner
// shared across every call, so repeated and concurrent requests for the same
// simulation collapse into a single execution. All methods are safe for
// concurrent use.
type Engine struct {
	r *experiments.Runner
}

// NewEngine validates opts (nil = defaults) and builds an engine. This is
// cheap — no simulation runs until the first request.
func NewEngine(opts *Options) (*Engine, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	r, err := experiments.NewRunner(o)
	if err != nil {
		return nil, err
	}
	return &Engine{r: r}, nil
}

// Options returns the engine's resolved options (defaults filled in).
func (e *Engine) Options() Options { return e.r.Options() }

// Evaluate runs one workload under one policy on the shared runner.
func (e *Engine) Evaluate(ctx context.Context, workloadName string, policy PolicyName) (Result, error) {
	return e.r.Evaluate(ctx, workloadName, policy)
}

// Compare evaluates several policies on one workload concurrently, sharing
// the profiling run and every memoized simulation.
func (e *Engine) Compare(ctx context.Context, workloadName string, policies []PolicyName) ([]Result, error) {
	return e.r.Compare(ctx, workloadName, policies)
}

// ExperimentIDs lists the table/figure drivers runnable via RunExperiment,
// in paper order.
func (e *Engine) ExperimentIDs() []string { return e.r.ExperimentIDs() }

// RunExperiment regenerates one paper table/figure by id on the shared
// runner. When ctx carries a tracer the whole driver runs under an
// "experiment.<id>" span.
func (e *Engine) RunExperiment(ctx context.Context, id string) (*report.Table, error) {
	return e.r.RunExperiment(ctx, id)
}
