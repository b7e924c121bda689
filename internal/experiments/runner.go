// Package experiments contains one driver per table and figure of the
// paper's evaluation (the per-experiment index lives in DESIGN.md §4).
// A Runner memoizes profiling runs and policy runs behind a singleflight
// cache and fault studies in a study store, records each workload's trace
// once for all of its simulations, and every driver fans its independent
// simulations out over a bounded worker pool — so the full suite does each
// expensive simulation exactly once, saturates the machine, and still
// produces bit-identical tables for a given Options.Seed at any worker
// count.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hmem/internal/annotate"
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

	// blocks memoizes every simulation by its Block (see run). A profile
	// block's entry keeps the whole Profile; any other block's keeps only
	// Result.
	blocks exec.Memo[Block, *Profile]

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

	// delegate, when set, is offered every block before local computation
	// (the cluster distribution seam, see blocks.go).
	delegateMu sync.RWMutex
	delegate   Delegate

	// studies holds the runner's fault-study outcomes: a private store, or
	// one shared with other runners (see studies.go).
	studies atomic.Pointer[StudyStore]
}

// Profile is a workload's oracle profiling run: the DDR-only simulation
// that yields per-page hotness and AVF (§4.2) and the DDR-only baselines,
// plus the workload's structure layout (what annotation selection consumes).
// Stats is derived from the run's snapshot before scoring drops it, so
// Result, like every memoized run, carries no snapshot. Everything here is
// serializable — a Profile computed on any cluster node is bit-identical to
// a local one.
type Profile struct {
	Structures []workload.Structure `json:"structures"`
	Result     sim.Result           `json:"result"`
	Stats      []core.PageStats     `json:"stats"`
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
	r := &Runner{
		opts:       opts,
		cfg:        cfg,
		topo:       topo,
		specs:      specs,
		slots:      make(chan struct{}, opts.Parallel),
		recordings: recordingStore{budget: recordingBudget(opts.RecordsPerCore)},
	}
	r.studies.Store(&StudyStore{})
	return r, nil
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
// deterministic fan-out of the per-workload drivers (comparisons use grid).
func mapSpecs[T any](ctx context.Context, r *Runner, specs []workload.Spec, fn func(workload.Spec) (T, error)) ([]T, error) {
	return exec.Map(ctx, r.opts.Parallel, len(specs), func(i int) (T, error) {
		return fn(specs[i])
	})
}

// Fits returns every tier's uncorrectable FIT per GB, in topology tier
// order, running each tier's FaultSim study once through the runner's study
// store. Tiers carrying a fixed FITPerGB skip their study. Concurrent
// callers share each study, and so do runners sharing the store.
func (r *Runner) Fits(ctx context.Context) (faultsim.TierFITs, error) {
	per := make([]float64, len(r.topo.Tiers))
	for i, td := range r.topo.Tiers {
		if td.FITPerGB > 0 {
			per[i] = td.FITPerGB
			continue
		}
		var err error
		if per[i], err = r.tierFIT(ctx, i); err != nil {
			return faultsim.TierFITs{}, err
		}
	}
	return faultsim.TierFITs{PerGB: per}, nil
}

// runStudy executes one tier's fault study, preferring the delegate's
// shard-level distribution: workers compute integer tallies for the 2048-
// trial Monte-Carlo shards, the coordinator merges them in shard order and
// finishes the Poisson math locally — byte-identical to a local run at any
// worker count. ErrNotDelegated (or no delegate) runs the study locally.
func (r *Runner) runStudy(ctx context.Context, tier int, study *faultsim.Study) (faultsim.Result, error) {
	jobs := study.Shards(r.opts.FaultTrials)
	blocks := make([]Block, len(jobs))
	for i, j := range jobs {
		blocks[i] = Block{Kind: BlockFaultShard, Tier: tier, Job: j}
	}
	payloads, ok, err := r.offer(ctx, blocks...)
	if err != nil {
		return faultsim.Result{}, err
	}
	if !ok {
		return study.RunCtx(ctx, r.opts.FaultTrials)
	}
	tallies := make([]faultsim.ShardTally, len(payloads))
	for i, raw := range payloads {
		if err := json.Unmarshal(raw, &tallies[i]); err != nil {
			return faultsim.Result{}, fmt.Errorf("experiments: undecodable fault-shard payload: %w", err)
		}
	}
	return study.Combine(jobs, tallies, r.opts.FaultTrials)
}

// CacheStats reports the hit/miss counters of the runner's block memo: each
// miss is one simulation started. It is the work-sharing counter
// cmd/experiments prints after a run and hmemd exports on /metrics.
func (r *Runner) CacheStats() exec.MemoStats { return r.blocks.Stats() }

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
	res, err := sim.RunCtx(ctx, r.cfg, suite.ranges, suite.streams, pages, pin, mig)
	return res, suite.structures, err
}

// score is the one step between a simulation and the memo: it fills the
// run's SER and all-DDR SER under the runner's fits (Equation 2, summed in
// core.SERModel's order) and drops the per-page snapshot, which nothing
// reads after scoring. Every memoized run passes through it exactly once,
// on the node that simulated it.
func (r *Runner) score(ctx context.Context, res sim.Result) (sim.Result, error) {
	fits, err := r.Fits(ctx)
	if err != nil {
		return sim.Result{}, err
	}
	m := core.SERModel{Fits: fits}
	res.SER = m.SER(res.Snapshot)
	res.SERAllDDR = m.SERAllDDR(res.Snapshot)
	res.Snapshot = nil
	return res, nil
}

// placement is where a run starts: the pages placed in HBM, whether they
// are pinned there, and the migrator (nil for none).
type placement struct {
	pages []uint64
	pin   bool
	mig   sim.Migrator
}

// start is the one table of simulation blocks: it maps b to where its run
// starts, as a function of the workload's profile (nil for the profile
// block itself, which runs DDR-only). Static blocks resolve their name with
// core.PolicyByName, dynamic ones with mechanismByName, and the annotation
// blocks pin annotate.Select's pages. ok is false when b's name resolves to
// nothing; such a block runs only from its caller's own placement, and no
// other node could run it. start is called only on a memo miss.
func (r *Runner) start(b Block) (place func(*Profile) placement, ok bool) {
	switch b.Kind {
	case BlockStatic:
		policy, ok := core.PolicyByName(b.Name)
		return r.warmStart(policy, nil), ok
	case BlockDynamic:
		build, warm, ok := mechanismByName(b.Name, r.opts)
		return r.warmStart(warm, build), ok
	case BlockAnnotation:
		// §7's static evaluation: the pins stay put and no migrator runs. A
		// worker derives the same pins from its own bit-identical profile,
		// so only the result crosses the wire.
		return func(prof *Profile) placement {
			_, pins := r.annotations(prof)
			return placement{pages: pins, pin: true}
		}, true
	case BlockAnnotatedMigration:
		// Pin annotations into at most half of HBM so the Full Counter
		// mechanism has frames to manage.
		build, _, _ := mechanismByName(mechFC, r.opts)
		return func(prof *Profile) placement {
			_, pins := annotate.Select(prof.Structures, prof.Stats, int(r.cfg.FastPages())/2)
			return placement{pages: pins, pin: true, mig: build()}
		}, true
	}
	return nil, b.Kind == BlockProfile
}

// warmStart starts a run with warm's pick of the profile in HBM and build's
// migrator (none for a nil build).
func (r *Runner) warmStart(warm core.Policy, build func() sim.Migrator) func(*Profile) placement {
	return func(prof *Profile) placement {
		at := placement{pages: warm.Select(prof.Stats, int(r.cfg.FastPages()))}
		if build != nil {
			at.mig = build()
		}
		return at
	}
}

// run is the one path of every memoized simulation. On a memo miss it
// resolves the block through start, detaches from the requester's
// cancellation, opens the block's span, offers the block to the delegate
// when it resolves (so a worker can run it), and otherwise simulates
// locally and scores. own, when non-nil, is the caller's own placement and
// is used instead of start's for a local run. Every block but the profile
// starts from its placement applied to the workload's profile; a profile
// block keeps its structures and per-page stats.
func (r *Runner) run(ctx context.Context, spec workload.Spec, b Block, own func(*Profile) placement) (*Profile, error) {
	return r.blocks.DoCtx(ctx, b, func() (*Profile, error) {
		place, resolves := r.start(b)
		if own != nil {
			place = own
		} else if !resolves {
			return nil, fmt.Errorf("experiments: unresolvable %s block %q", b.Kind, b.Name)
		}
		runCtx := obs.Detach(ctx)
		if obs.Enabled(runCtx) {
			var sp *obs.Span
			runCtx, sp = obs.Start(runCtx, "experiments."+string(b.Kind),
				obs.Str("workload", b.Workload), obs.Str("name", b.Name))
			defer sp.End()
		}
		if resolves {
			if payloads, ok, err := r.offer(runCtx, b); err != nil || ok {
				if err != nil {
					return nil, err
				}
				return decodePayload(b, payloads[0])
			}
		}
		var at placement
		if b.Kind != BlockProfile {
			prof, err := r.ProfileOf(runCtx, spec)
			if err != nil {
				return nil, err
			}
			at = place(prof)
		}
		res, structures, err := r.simulate(runCtx, spec, at.pages, at.pin, at.mig)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s %s: %w", b.Kind, spec.Name, b.Name, err)
		}
		p := &Profile{}
		if b.Kind == BlockProfile {
			p.Structures, p.Stats = structures, res.Stats()
		}
		if p.Result, err = r.score(runCtx, res); err != nil {
			return nil, err
		}
		return p, nil
	})
}

// result returns the scored result of b on spec (a profile block's
// DDR-only run), memoized and resolved through start.
func (r *Runner) result(ctx context.Context, spec workload.Spec, b Block) (sim.Result, error) {
	b.Workload = spec.Name
	return resultOf(r.run(ctx, spec, b, nil))
}

// resultOf unwraps a block's memo entry to its scored result.
func resultOf(p *Profile, err error) (sim.Result, error) {
	if err != nil {
		return sim.Result{}, err
	}
	return p.Result, nil
}

// ProfileOf returns the memoized DDR-only profiling run for a workload.
func (r *Runner) ProfileOf(ctx context.Context, spec workload.Spec) (*Profile, error) {
	return r.run(ctx, spec, Block{Kind: BlockProfile, Workload: spec.Name}, nil)
}

// RunStatic executes (memoized) a static-policy run: the policy selects HBM
// residents from the oracle profile, and the workload re-runs with that
// placement fixed.
func (r *Runner) RunStatic(ctx context.Context, spec workload.Spec, policy core.Policy) (sim.Result, error) {
	return resultOf(r.run(ctx, spec, Block{Kind: BlockStatic, Workload: spec.Name, Name: policy.Name()}, r.warmStart(policy, nil)))
}

// RunDynamic executes (memoized by mechanism name) a migration run of the
// caller's migrator, warm-started from warm's oracle placement. Only a
// mechanism of mechanismByName's table is delegated: a caller's own
// migrator under another name does not resolve on a worker.
func (r *Runner) RunDynamic(ctx context.Context, spec workload.Spec, mech string, build func() sim.Migrator, warm core.Policy) (sim.Result, error) {
	return resultOf(r.run(ctx, spec, Block{Kind: BlockDynamic, Workload: spec.Name, Name: mech}, r.warmStart(warm, build)))
}

// ErrZeroBaselineSER reports a degenerate fault study: the all-DDR baseline
// SER of a run is zero, so relative SER is undefined. Surfacing it as an
// error keeps a broken study from masquerading as "perfect reliability" in
// the tables.
var ErrZeroBaselineSER = errors.New("experiments: all-DDR baseline SER is zero (degenerate fault study or empty snapshot)")

// serOf reads a memoized run's score: (absolute SER, SER relative to
// all-DDR). A zero baseline returns ErrZeroBaselineSER.
func serOf(res sim.Result) (abs, rel float64, err error) {
	if res.SERAllDDR == 0 {
		return res.SER, 0, ErrZeroBaselineSER
	}
	return res.SER, res.SER / res.SERAllDDR, nil
}
