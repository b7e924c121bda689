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
// Long-lived processes (the hmemd service) hold an Engine instead, which
// shares one memoized runner across every request.
package hmem

import (
	"context"
	"fmt"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/faultsim"
	"hmem/internal/migration"
	"hmem/internal/obs"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/trace"
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

// TraceStats is the trace-delivery counter pair (recordings vs replays)
// reported by Engine.TraceStats.
type TraceStats = experiments.TraceStats

// TraceStream is the per-core trace interface, re-exported for the
// SetTraceWrap fault-injection seam.
type TraceStream = trace.Stream

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

func evaluate(ctx context.Context, r *experiments.Runner, workloadName string, policy PolicyName) (Result, error) {
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
		res, err = r.RunDynamic(ctx, spec, string(policy), func() sim.Migrator {
			return migration.NewPerf(r.Options().FCIntervalCycles)
		}, core.PerfFocused{})
	case PolicyFCMigration:
		res, err = r.RunDynamic(ctx, spec, string(policy), func() sim.Migrator {
			return migration.NewFullCounter(r.Options().FCIntervalCycles)
		}, core.Balanced{})
	case PolicyCCMigration:
		res, err = r.RunDynamic(ctx, spec, string(policy), func() sim.Migrator {
			ratio := int(r.Options().FCIntervalCycles / r.Options().MEAIntervalCycles)
			return migration.NewCrossCounter(r.Options().MEAIntervalCycles, ratio, 32)
		}, core.Balanced{})
	case PolicyAnnotation:
		res, err = r.RunAnnotation(ctx, spec)
	default:
		return Result{}, fmt.Errorf("hmem: unknown policy %q", policy)
	}
	if err != nil {
		return Result{}, err
	}

	_, rel, err := r.SEROf(ctx, res)
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
		MeanAVF:       res.MeanAVF(),
		PagesMigrated: res.PagesMigrated,
		Endurance:     res.Endurance,
	}, nil
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
// simulation collapse into a single execution. The hmemd service keeps one
// Engine per distinct option set while it is in use, plus a bounded set of
// idle ones. All methods are safe for concurrent use.
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

// Options returns the engine's resolved options (defaults filled in) — the
// canonical form the service digests for its result-cache keys.
func (e *Engine) Options() Options { return e.r.Options() }

// Evaluate runs one workload under one policy on the shared runner.
func (e *Engine) Evaluate(ctx context.Context, workloadName string, policy PolicyName) (Result, error) {
	return evaluate(ctx, e.r, workloadName, policy)
}

// Compare evaluates several policies on one workload concurrently, sharing
// the profiling run and every memoized simulation.
func (e *Engine) Compare(ctx context.Context, workloadName string, policies []PolicyName) ([]Result, error) {
	// Profile once up front so the concurrent evaluations share the warm
	// memo instead of all blocking on the same singleflight leader.
	spec, err := workload.SpecByName(workloadName)
	if err != nil {
		return nil, err
	}
	if _, err := e.r.ProfileOf(ctx, spec); err != nil {
		return nil, err
	}
	return exec.Map(ctx, e.r.Options().Parallel, len(policies), func(i int) (Result, error) {
		return evaluate(ctx, e.r, workloadName, policies[i])
	})
}

// ExperimentIDs lists the table/figure drivers runnable via RunExperiment,
// in paper order.
func (e *Engine) ExperimentIDs() []string {
	var ids []string
	for _, n := range e.r.All() {
		ids = append(ids, n.ID)
	}
	return ids
}

// RunExperiment regenerates one paper table/figure by id on the shared
// runner (the async-job path of the hmemd service). When ctx carries a
// tracer the whole driver runs under an "experiment.<id>" span.
func (e *Engine) RunExperiment(ctx context.Context, id string) (*report.Table, error) {
	exp, ok := e.r.ByID(id)
	if !ok {
		return nil, fmt.Errorf("hmem: unknown experiment %q", id)
	}
	if obs.Enabled(ctx) {
		var sp *obs.Span
		ctx, sp = obs.Start(ctx, "experiment."+id)
		defer sp.End()
	}
	return exp.Run(ctx)
}

// CacheStats reports the shared runner's memo hit/miss counters: how much
// simulation work requests have shared so far.
func (e *Engine) CacheStats() exec.MemoStats { return e.r.CacheStats() }

// TraceStats reports the engine's trace-delivery counters: trace
// recordings (opens) versus simulations that replayed a recording (hits).
func (e *Engine) TraceStats() experiments.TraceStats { return e.r.TraceStats() }

// RecordingBytes reports the bytes of trace recordings the engine keeps.
// Each workload's trace is recorded once and replayed to every simulation
// of it, under a fixed 96 MiB bound per engine.
func (e *Engine) RecordingBytes() int64 { return e.r.RecordingBytes() }

// SetTraceWrap installs a wrapper over every trace stream a simulation on
// this engine consumes, keyed by workload name — the per-item
// fault-injection seam of the batch chaos tests. Results computed under a
// wrap are memoized like any other, so long-lived engines should only wrap
// in tests.
func (e *Engine) SetTraceWrap(wrap func(workloadName string, s trace.Stream) trace.Stream) {
	e.r.SetTraceWrap(wrap)
}

// SetDelegate installs a distribution delegate on the shared runner: every
// memoized building block (profiles, policy runs, fault-study shards) is
// offered to it before local computation. The hmemd coordinator uses this to
// fan work out to registered cluster workers; experiments.ErrNotDelegated
// falls back to local execution, so an engine with an idle delegate behaves
// exactly like a standalone one.
func (e *Engine) SetDelegate(d experiments.Delegate) { e.r.SetDelegate(d) }

// SetStudyStore installs a fault-study store shared with other engines:
// every engine holding it runs each distinct tier study once between them.
// Results are byte-identical with or without a store. hmemd installs one
// per process.
func (e *Engine) SetStudyStore(st *experiments.StudyStore) { e.r.SetStudyStore(st) }

// StudiesKnown reports whether every fault study this engine needs is
// finished or in flight in its installed store (false without one) — the
// admission cost model's way to price an evaluation's study as paid.
func (e *Engine) StudiesKnown() bool { return e.r.StudiesKnown() }

// ExecuteBlock runs one building block locally by its wire key — the worker
// side of cluster execution. Results flow through the engine's memo caches,
// so repeated shards are served without recomputation.
func (e *Engine) ExecuteBlock(ctx context.Context, key experiments.BlockKey) (*experiments.BlockPayload, error) {
	return e.r.ExecuteBlock(ctx, key)
}

// RunStudyShard executes one fault-study Monte-Carlo shard for a topology
// tier — the worker side of distributed fault studies.
func (e *Engine) RunStudyShard(tier int, job faultsim.ShardJob) (faultsim.ShardTally, error) {
	return e.r.RunStudyShard(tier, job)
}
