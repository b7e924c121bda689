// Package experiments contains one driver per table and figure of the
// paper's evaluation (the per-experiment index lives in DESIGN.md §4).
// A Runner memoizes profiling runs, policy runs, and the fault study behind
// singleflight caches, records each workload's trace once for all of its
// simulations, and every driver fans its independent simulations out over a
// bounded worker pool — so the full suite does each expensive simulation
// exactly once, saturates the machine, and still produces bit-identical
// tables for a given Options.Seed at any worker count.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/faultsim"
	"hmem/internal/obs"
	"hmem/internal/sim"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// Options scales the experiment suite. The defaults reproduce every figure
// at 1/64 of the paper's capacities with interval ratios preserved
// (DESIGN.md §3 "Scale").
type Options struct {
	// ScaleDiv divides the Table 1 capacities (64 -> 16 MB HBM + 256 MB DDR).
	ScaleDiv int
	// RecordsPerCore is the trace length per core.
	RecordsPerCore int
	// Seed drives all generators.
	Seed uint64
	// FaultTrials is the Monte-Carlo trial count per stratum (§3.2).
	FaultTrials int
	// FCIntervalCycles is the scaled 100 ms full-counter interval.
	FCIntervalCycles int64
	// MEAIntervalCycles is the scaled 50 µs MEA interval.
	MEAIntervalCycles int64
	// Workloads restricts the evaluated set (nil = all 14).
	Workloads []string
	// Topology names the tier topology to simulate: "hbm-ddr" (the paper's
	// default, also the value for ""), "dram-nvm" (the built-in three-tier
	// scenario), or any topology registered via core.RegisterTopology.
	// Built-ins honor ScaleDiv; registered topologies carry explicit
	// capacities.
	Topology string
	// Parallel bounds the worker count for every fan-out — figure drivers
	// sweeping workloads × policies, fault-study shards, and facade
	// comparisons — and the simulations one Runner runs at once, however
	// those fan-outs nest (non-positive = one per CPU). The worker count
	// only changes wall-clock time, never a result — identical seeds give
	// bit-identical tables at any parallelism.
	Parallel int
}

// DefaultOptions returns the standard reduced-scale configuration.
func DefaultOptions() Options {
	return Options{
		ScaleDiv:       64,
		RecordsPerCore: 40000,
		Seed:           0x9AFE2018,
		FaultTrials:    20000,
		// The paper's 100 ms / 50 µs at 3.2 GHz are 320M / 160K cycles; at
		// our ~100x-shorter simpoints we keep a large FC:MEA ratio (50:1).
		FCIntervalCycles:  400_000,
		MEAIntervalCycles: 8_000,
	}
}

// Runner executes and memoizes experiment building blocks. All methods are
// safe for concurrent use: concurrent requests for the same profiling run,
// policy run, or fault study share a single in-flight computation.
//
// Every building block takes a context.Context with requester semantics: a
// cancelled context stops the caller from starting (or waiting on) work, but
// a computation that has already started always runs to completion — its
// result is shared with every other requester of the same key, so it must
// not record one caller's cancellation. That is why the memoized closures
// below resolve their own dependencies with obs.Detach(ctx): a fresh
// background context that keeps the first requester's observability (tracer,
// registry, progress sink) and none of its cancellation.
type Runner struct {
	opts  Options
	cfg   sim.Config
	topo  *core.Topology
	specs []workload.Spec

	fits     exec.Memo[struct{}, faultsim.TierFITs]
	profiles exec.Memo[string, *Profile]
	runs     exec.Memo[string, sim.Result]

	// recordings holds the workloads' recorded traces; counters and the
	// wrap seam live in recordings.go.
	recordings recordingStore

	// slots holds one token per running simulation, bounding them at
	// Options.Parallel however the fan-outs nest.
	slots chan struct{}

	traceOpens   atomic.Uint64
	coalesceHits atomic.Uint64

	traceWrapMu sync.RWMutex
	traceWrap   func(workloadName string, s trace.Stream) trace.Stream

	// delegate, when set, is offered every building block before local
	// computation (the cluster distribution seam, see blocks.go).
	delegateMu sync.RWMutex
	delegate   Delegate

	// studies, when set, shares fault-study outcomes with other runners
	// (see studies.go).
	studies atomic.Pointer[StudyStore]
}

// Profile is a workload's oracle profiling run: the DDR-only simulation
// that yields per-page hotness and AVF (§4.2) and the DDR-only baselines,
// plus the workload's structure layout (what annotation selection consumes).
// Everything here is serializable — a Profile computed on any cluster node
// is bit-identical to a local one.
type Profile struct {
	Structures []workload.Structure
	Result     sim.Result
	Stats      []core.PageStats
}

// NewRunner builds a runner; zero-value options fall back to defaults. It
// validates the workload selection up front — a typo in Options.Workloads
// (which arrives straight from cmd/experiments -workloads) is an error
// naming the valid choices, not a panic at first use.
func NewRunner(opts Options) (*Runner, error) {
	def := DefaultOptions()
	if opts.ScaleDiv <= 0 {
		opts.ScaleDiv = def.ScaleDiv
	}
	if opts.RecordsPerCore <= 0 {
		opts.RecordsPerCore = def.RecordsPerCore
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	if opts.FaultTrials <= 0 {
		opts.FaultTrials = def.FaultTrials
	}
	if opts.FCIntervalCycles <= 0 {
		opts.FCIntervalCycles = def.FCIntervalCycles
	}
	if opts.MEAIntervalCycles <= 0 {
		opts.MEAIntervalCycles = def.MEAIntervalCycles
	}
	opts.Parallel = exec.Workers(opts.Parallel)
	if opts.Topology == "" {
		opts.Topology = core.DefaultTopologyName
	}
	topo, err := core.TopologyByName(opts.Topology, opts.ScaleDiv)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	specs, err := resolveWorkloads(opts.Workloads)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(opts.ScaleDiv)
	cfg.Topology = topo
	return &Runner{
		opts:  opts,
		cfg:   cfg,
		topo:  topo,
		specs: specs,
		slots: make(chan struct{}, opts.Parallel),
	}, nil
}

// resolveWorkloads maps the requested names to specs, or reports the full
// set of valid names on the first unknown one.
func resolveWorkloads(names []string) ([]workload.Spec, error) {
	if len(names) == 0 {
		return workload.AllSpecs(), nil
	}
	out := make([]workload.Spec, 0, len(names))
	for _, name := range names {
		s, err := workload.SpecByName(name)
		if err != nil {
			var valid []string
			for _, v := range workload.AllSpecs() {
				valid = append(valid, v.Name)
			}
			return nil, fmt.Errorf(
				"experiments: unknown workload %q (valid workloads: %s; any benchmark of %s also runs as a homogeneous workload)",
				name, strings.Join(valid, ", "), strings.Join(workload.Names(), ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// Options returns the runner's resolved options.
func (r *Runner) Options() Options { return r.opts }

// Config returns the scaled machine configuration.
func (r *Runner) Config() sim.Config { return r.cfg }

// Topology returns the runner's resolved tier topology.
func (r *Runner) Topology() *core.Topology { return r.topo }

// Workloads returns the evaluated workload specs (validated at NewRunner).
func (r *Runner) Workloads() []workload.Spec {
	return append([]workload.Spec(nil), r.specs...)
}

// mapSpecs evaluates fn over specs on the runner's worker budget and
// returns the results in spec order regardless of completion order — the
// deterministic fan-out every figure driver is built on.
func mapSpecs[T any](ctx context.Context, r *Runner, specs []workload.Spec, fn func(workload.Spec) (T, error)) ([]T, error) {
	return exec.Map(ctx, r.opts.Parallel, len(specs), func(i int) (T, error) {
		return fn(specs[i])
	})
}

// Fits runs (once) the per-tier FaultSim studies and returns every tier's
// uncorrectable FIT per GB, in topology tier order. Tiers carrying a fixed
// FITPerGB skip their study. Concurrent callers share the one computation,
// and with a StudyStore installed so do other runners.
func (r *Runner) Fits(ctx context.Context) (faultsim.TierFITs, error) {
	return r.fits.DoCtx(ctx, struct{}{}, func() (faultsim.TierFITs, error) {
		// Detach: keep the first requester's observability but not its
		// cancellation — the result is shared with every other requester.
		runCtx := obs.Detach(ctx)
		per := make([]float64, len(r.topo.Tiers))
		for i, td := range r.topo.Tiers {
			if td.FITPerGB > 0 {
				per[i] = td.FITPerGB
				continue
			}
			study, _, err := r.StudyForTier(i)
			if err != nil {
				return faultsim.TierFITs{}, err
			}
			if per[i], err = r.tierFIT(runCtx, i, study); err != nil {
				return faultsim.TierFITs{}, err
			}
		}
		return faultsim.TierFITs{
			DDRPerGB: per[0],
			HBMPerGB: per[r.topo.FastTier],
			PerGB:    per,
		}, nil
	})
}

// runStudy executes one tier's fault study, preferring the delegate's
// shard-level distribution: workers compute integer tallies for the 2048-
// trial Monte-Carlo shards, the coordinator merges them in shard order and
// finishes the Poisson math locally — byte-identical to a local run at any
// worker count. ErrNotDelegated (or no delegate) runs the study locally.
func (r *Runner) runStudy(ctx context.Context, tier int, study *faultsim.Study) (faultsim.Result, error) {
	if d := r.getDelegate(); d != nil {
		jobs := study.Shards(r.opts.FaultTrials)
		tallies, err := d.RunStudyShards(ctx, tier, jobs)
		switch {
		case err == nil:
			return study.Combine(jobs, tallies, r.opts.FaultTrials)
		case !errors.Is(err, ErrNotDelegated):
			return faultsim.Result{}, err
		}
	}
	return study.RunCtx(ctx, r.opts.FaultTrials)
}

// SERModel returns the SER scorer backed by the fault studies, with the
// topology's fast tier installed for static scoring.
func (r *Runner) SERModel(ctx context.Context) (core.SERModel, error) {
	fits, err := r.Fits(ctx)
	if err != nil {
		return core.SERModel{}, err
	}
	return core.SERModel{Fits: fits, Fast: r.topo.FastTier}, nil
}

// CacheStats aggregates the hit/miss counters of the runner's three memo
// caches (fault study, profiles, policy runs) — the work-sharing counter
// cmd/experiments prints after a run and hmemd exports on /metrics.
func (r *Runner) CacheStats() exec.MemoStats {
	return r.fits.Stats().Add(r.profiles.Stats()).Add(r.runs.Stats())
}

// simulate runs one simulation of the workload's trace, returning the
// workload's structure table with the result. It holds one of the runner's
// simulation slots only while the simulation runs — never while recording
// or resolving dependencies, and a simulation waits on nothing else, so
// slots cannot deadlock.
func (r *Runner) simulate(ctx context.Context, spec workload.Spec, pages []uint64, pin bool, mig sim.Migrator) (sim.Result, []workload.Structure, error) {
	suite, err := r.buildSuiteCtx(ctx, spec)
	if err != nil {
		return sim.Result{}, nil, err
	}
	r.slots <- struct{}{}
	defer func() { <-r.slots }()
	res, err := sim.RunCtx(ctx, r.cfg, suite.streams, pages, pin, mig)
	return res, suite.structures, err
}

// ProfileOf returns the memoized DDR-only profiling run for a workload.
func (r *Runner) ProfileOf(ctx context.Context, spec workload.Spec) (*Profile, error) {
	return r.profiles.DoCtx(ctx, spec.Name, func() (*Profile, error) {
		runCtx := obs.Detach(ctx)
		if obs.Enabled(runCtx) {
			var sp *obs.Span
			runCtx, sp = obs.Start(runCtx, "experiments.profile", obs.Str("workload", spec.Name))
			defer sp.End()
		}
		if p, ok, err := r.delegateBlock(runCtx, BlockKey{Kind: BlockProfile, Workload: spec.Name}); err != nil {
			return nil, err
		} else if ok {
			return &Profile{Structures: p.Structures, Result: p.Result, Stats: p.Result.Stats()}, nil
		}
		res, structures, err := r.simulate(runCtx, spec, nil, false, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: profiling %s: %w", spec.Name, err)
		}
		return &Profile{Structures: structures, Result: res, Stats: res.Stats()}, nil
	})
}

// RunStatic executes (memoized) a static-policy run: the policy selects HBM
// residents from the oracle profile, and the workload re-runs with that
// placement fixed.
func (r *Runner) RunStatic(ctx context.Context, spec workload.Spec, policy core.Policy) (sim.Result, error) {
	return r.runs.DoCtx(ctx, "static/"+spec.Name+"/"+policy.Name(), func() (sim.Result, error) {
		runCtx := obs.Detach(ctx)
		if obs.Enabled(runCtx) {
			var sp *obs.Span
			runCtx, sp = obs.Start(runCtx, "experiments.static",
				obs.Str("workload", spec.Name), obs.Str("policy", policy.Name()))
			defer sp.End()
		}
		if delegableStatic(policy) {
			if p, ok, err := r.delegateBlock(runCtx, BlockKey{Kind: BlockStatic, Workload: spec.Name, Policy: policy.Name()}); err != nil {
				return sim.Result{}, err
			} else if ok {
				return p.Result, nil
			}
		}
		prof, err := r.ProfileOf(runCtx, spec)
		if err != nil {
			return sim.Result{}, err
		}
		pages := policy.Select(prof.Stats, int(r.cfg.FastPages()))
		res, _, err := r.simulate(runCtx, spec, pages, false, nil)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %s under %s: %w", spec.Name, policy.Name(), err)
		}
		return res, nil
	})
}

// RunDynamic executes (memoized by mechanism name) a migration run. The
// initial placement warms HBM with the oracle hot set ("we assume a good
// pre-measurement placement ... the top hot pages from our oracular static
// placement"), or the hot∧low-risk set for reliability-aware mechanisms.
func (r *Runner) RunDynamic(ctx context.Context, spec workload.Spec, mech string, build func() sim.Migrator, warm core.Policy) (sim.Result, error) {
	return r.runs.DoCtx(ctx, "dynamic/"+spec.Name+"/"+mech, func() (sim.Result, error) {
		runCtx := obs.Detach(ctx)
		if obs.Enabled(runCtx) {
			var sp *obs.Span
			runCtx, sp = obs.Start(runCtx, "experiments.dynamic",
				obs.Str("workload", spec.Name), obs.Str("mechanism", mech))
			defer sp.End()
		}
		if _, _, resolvable := mechanismByName(mech, r.opts); resolvable {
			if p, ok, err := r.delegateBlock(runCtx, BlockKey{Kind: BlockDynamic, Workload: spec.Name, Policy: mech}); err != nil {
				return sim.Result{}, err
			} else if ok {
				return p.Result, nil
			}
		}
		prof, err := r.ProfileOf(runCtx, spec)
		if err != nil {
			return sim.Result{}, err
		}
		pages := warm.Select(prof.Stats, int(r.cfg.FastPages()))
		res, _, err := r.simulate(runCtx, spec, pages, false, build())
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %s under %s: %w", spec.Name, mech, err)
		}
		return res, nil
	})
}

// ErrZeroBaselineSER reports a degenerate fault study: the all-DDR baseline
// SER of a run is zero, so relative SER is undefined. Surfacing it as an
// error keeps a broken study from masquerading as "perfect reliability" in
// the tables.
var ErrZeroBaselineSER = errors.New("experiments: all-DDR baseline SER is zero (degenerate fault study or empty snapshot)")

// SEROf scores a finished run against the DDR-only baseline, returning
// (absolute SER, SER relative to all-DDR). A zero baseline returns
// ErrZeroBaselineSER.
func (r *Runner) SEROf(ctx context.Context, res sim.Result) (abs, rel float64, err error) {
	m, err := r.SERModel(ctx)
	if err != nil {
		return 0, 0, err
	}
	abs = m.SER(res.Snapshot)
	base := m.SERAllDDR(res.Snapshot)
	if base == 0 {
		return abs, 0, ErrZeroBaselineSER
	}
	return abs, abs / base, nil
}
