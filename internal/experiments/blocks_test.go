package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"hmem/internal/core"
	"hmem/internal/faultsim"
	"hmem/internal/obs"
	"hmem/internal/workload"
)

// wireDelegate simulates the cluster path inside one process: every block
// is JSON round-tripped (as the HTTP transport would) and executed on a
// second, independent Runner built from the same options — the worker.
type wireDelegate struct {
	worker *Runner
	kinds  map[BlockKind]int
}

func (d *wireDelegate) Run(ctx context.Context, blocks []Block) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(blocks))
	for i, b := range blocks {
		raw, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		var wire Block
		if err := json.Unmarshal(raw, &wire); err != nil {
			return nil, err
		}
		d.kinds[wire.Kind]++
		if out[i], err = d.worker.Execute(ctx, wire); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func blockTestOptions() Options {
	opts := DefaultOptions()
	opts.Workloads = []string{"astar"}
	opts.RecordsPerCore = 4000
	opts.FaultTrials = 2000
	return opts
}

// TestDelegatedBlocksBitIdentical is the cluster correctness contract at the
// experiments layer: every block kind, executed on a different runner and
// shipped through JSON, must be bit-identical to local execution.
func TestDelegatedBlocksBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	local := mustRunner(t, blockTestOptions())
	coord := mustRunner(t, blockTestOptions())
	deleg := &wireDelegate{worker: mustRunner(t, blockTestOptions()), kinds: map[BlockKind]int{}}
	coord.SetDelegate(deleg)

	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, run func(r *Runner) (any, error)) {
		t.Helper()
		lv, err := run(local)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := run(coord)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lv, cv) {
			t.Errorf("delegated %s differs from local", what)
		}
	}

	same("profile", func(r *Runner) (any, error) { return r.ProfileOf(ctx, spec) })
	for _, policy := range []core.Policy{core.PerfFocused{}, core.Balanced{}, core.PerfFraction{F: 0.5}, core.PerfFraction{F: 1.0 / 3.0}} {
		same("static "+policy.Name(), func(r *Runner) (any, error) { return r.RunStatic(ctx, spec, policy) })
	}
	for _, mech := range []string{mechFC, mechCC} {
		build, warm, ok := mechanismByName(mech, local.opts)
		if !ok {
			t.Fatalf("mechanismByName(%q) unresolvable", mech)
		}
		same("dynamic "+mech, func(r *Runner) (any, error) { return r.RunDynamic(ctx, spec, mech, build, warm) })
	}
	same("annotation", func(r *Runner) (any, error) {
		return r.result(ctx, spec, annotationBlock)
	})
	same("annotation+fc", func(r *Runner) (any, error) { return r.result(ctx, spec, Block{Kind: BlockAnnotatedMigration}) })
	same("fault study", func(r *Runner) (any, error) { return r.Fits(ctx) })

	for _, kind := range []BlockKind{BlockProfile, BlockStatic, BlockDynamic, BlockAnnotation, BlockAnnotatedMigration, BlockFaultShard} {
		if deleg.kinds[kind] == 0 {
			t.Errorf("no %s block was delegated (delegated: %v)", kind, deleg.kinds)
		}
	}
}

// funcDelegate answers every offer with one function.
type funcDelegate func(context.Context, []Block) ([]json.RawMessage, error)

func (d funcDelegate) Run(ctx context.Context, blocks []Block) ([]json.RawMessage, error) {
	return d(ctx, blocks)
}

func TestDelegateNotDelegatedFallsBackLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	r := mustRunner(t, blockTestOptions())
	kinds := map[BlockKind]int{}
	r.SetDelegate(funcDelegate(func(_ context.Context, blocks []Block) ([]json.RawMessage, error) {
		kinds[blocks[0].Kind]++
		return nil, ErrNotDelegated
	}))
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunStatic(ctx, spec, core.Balanced{}); err != nil {
		t.Fatalf("local fallback failed: %v", err)
	}
	if _, err := r.Fits(ctx); err != nil {
		t.Fatalf("local fallback failed: %v", err)
	}
	if kinds[BlockStatic] == 0 || kinds[BlockFaultShard] == 0 {
		t.Errorf("delegate not offered both a static block and fault shards: %v", kinds)
	}
}

func TestDelegateErrorPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	boom := errors.New("digest mismatch on worker")
	r := mustRunner(t, blockTestOptions())
	r.SetDelegate(funcDelegate(func(context.Context, []Block) ([]json.RawMessage, error) { return nil, boom }))
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunStatic(context.Background(), spec, core.Balanced{}); !errors.Is(err, boom) {
		t.Errorf("static: want delegate error, got %v", err)
	}
	if _, err := r.Fits(context.Background()); !errors.Is(err, boom) {
		t.Errorf("fits: want delegate error, got %v", err)
	}
}

// TestAnnotationRunsReachTelemetry: both annotation simulations run under
// the requester's observability — counted in the runner's SimStats and
// traced under their block's span.
func TestAnnotationRunsReachTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	r := mustRunner(t, blockTestOptions())
	if _, err := r.Evaluate(context.Background(), "astar", PolicyAnnotation); err != nil {
		t.Fatal(err)
	}
	// The profile and the annotation run.
	if got := r.SimStats().Runs; got != 2 {
		t.Errorf("SimStats().Runs = %d after an annotation evaluation, want 2", got)
	}

	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind BlockKind
		run  func(context.Context, *Runner) error
	}{
		{BlockAnnotation, func(ctx context.Context, r *Runner) error {
			_, err := r.Evaluate(ctx, "astar", PolicyAnnotation)
			return err
		}},
		{BlockAnnotatedMigration, func(ctx context.Context, r *Runner) error {
			_, err := r.result(ctx, spec, Block{Kind: BlockAnnotatedMigration})
			return err
		}},
	} {
		ring := obs.NewRing(1 << 14)
		ctx := obs.WithTracer(context.Background(), obs.NewTracer("annotation", ring))
		if err := tc.run(ctx, mustRunner(t, blockTestOptions())); err != nil {
			t.Fatal(err)
		}
		spans := ring.Snapshot("annotation")
		name := "experiments." + string(tc.kind)
		blocks := map[uint64]bool{}
		for _, sp := range spans {
			if sp.Name == name {
				blocks[sp.Span] = true
			}
		}
		nested := false
		for _, sp := range spans {
			nested = nested || sp.Name == "sim.run" && blocks[sp.Parent]
		}
		if len(blocks) != 1 || !nested {
			t.Errorf("%d %s spans, sim.run under one: %v", len(blocks), name, nested)
		}
	}
}

// TestPerfFractionRunsDistinct: nearby fractions select different page
// sets, so each is its own memoized run.
func TestPerfFractionRunsDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	r := mustRunner(t, blockTestOptions())
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProfileOf(ctx, spec); err != nil {
		t.Fatal(err)
	}
	before := r.blocks.Stats().Misses
	for _, f := range []float64{0.2501, 0.2504} {
		if _, err := r.RunStatic(ctx, spec, core.PerfFraction{F: f}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.blocks.Stats().Misses - before; got != 2 {
		t.Errorf("perf-fraction 0.2501 then 0.2504: %d memo misses, want 2", got)
	}
}

func TestMechanismByName(t *testing.T) {
	opts := DefaultOptions()
	resolvable := []string{
		mechPerf, mechFC, mechCC, "ablation/cc -blacklist", "ablation/cc -hysteresis",
		"ablation/cc 8-entry MEA", "400000-interval", "1000000-interval",
	}
	for _, name := range resolvable {
		build, warm, ok := mechanismByName(name, opts)
		if !ok {
			t.Errorf("mechanismByName(%q) = false, want resolvable", name)
			continue
		}
		if build == nil || build() == nil || warm == nil {
			t.Errorf("mechanismByName(%q) returned nil parts", name)
		}
	}
	// The facade's policy names and the full ablation variant run under the
	// drivers' names; none is a second name of its mechanism.
	for _, name := range []string{"", "nope", "fc-migration", "cc-migration", "ablation/cc (full)",
		"ablation/unknown", "x-interval", "-5-interval", "0-interval"} {
		if _, _, ok := mechanismByName(name, opts); ok {
			t.Errorf("mechanismByName(%q) = true, want unresolvable", name)
		}
	}
}

// TestDelegableStatic: a static block is delegated when its policy name
// resolves on a worker, so every policy the runner can be handed by name
// must resolve back to an identical policy.
func TestDelegableStatic(t *testing.T) {
	policies := append(core.StaticPolicies(),
		core.PerfFraction{F: 0.25}, core.PerfFraction{F: 1.0 / 3.0}, core.PerfFraction{F: 0.2501})
	for _, p := range policies {
		got, ok := core.PolicyByName(p.Name())
		if !ok || !reflect.DeepEqual(got, p) {
			t.Errorf("PolicyByName(%q) = %v, %v; want %#v", p.Name(), got, ok, p)
		}
	}
}

func TestBlockValidate(t *testing.T) {
	valid := []Block{
		{Kind: BlockProfile, Workload: "astar"},
		{Kind: BlockStatic, Workload: "astar", Name: "balanced"},
		{Kind: BlockDynamic, Workload: "astar", Name: mechCC},
		{Kind: BlockAnnotation, Workload: "astar"},
		{Kind: BlockAnnotatedMigration, Workload: "astar"},
		{Kind: BlockFaultShard, Tier: 0, Job: faultsim.ShardJob{K: 1, Shard: 0, N: 100}},
	}
	for _, b := range valid {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", b, err)
		}
	}
	invalid := []Block{
		{},
		{Kind: BlockProfile},
		{Kind: BlockStatic, Workload: "astar"},
		{Kind: BlockDynamic, Name: mechCC},
		{Kind: BlockAnnotatedMigration},
		{Kind: BlockFaultShard, Job: faultsim.ShardJob{K: 0, N: 100}},
		{Kind: BlockFaultShard, Job: faultsim.ShardJob{K: 1}},
		{Kind: "nonsense", Workload: "astar"},
	}
	for _, b := range invalid {
		if err := b.Validate(); err == nil {
			t.Errorf("%+v: accepted", b)
		}
	}
}

func TestStudyForTierAndShardValidation(t *testing.T) {
	r := mustRunner(t, blockTestOptions())
	study, ok, err := r.StudyForTier(0)
	if err != nil || !ok || study == nil {
		t.Fatalf("tier 0 (HBM) should carry a study: %v %v", ok, err)
	}
	if _, _, err := r.StudyForTier(99); err == nil {
		t.Error("out-of-range tier should error")
	}
	shard := func(tier, k int) Block {
		return Block{Kind: BlockFaultShard, Tier: tier, Job: faultsim.ShardJob{K: k, Shard: 0, N: 10}}
	}
	if _, err := r.Execute(context.Background(), shard(0, 0)); err == nil {
		t.Error("K=0 shard should be rejected")
	}
	if _, err := r.Execute(context.Background(), shard(0, study.MaxFaults+1)); err == nil {
		t.Error("K beyond MaxFaults should be rejected")
	}
	if _, err := r.Execute(context.Background(), shard(99, 1)); err == nil {
		t.Error("shard of an out-of-range tier should be rejected")
	}
	raw, err := r.Execute(context.Background(), shard(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	var tally faultsim.ShardTally
	if err := json.Unmarshal(raw, &tally); err != nil {
		t.Fatal(err)
	}
	if want := study.RunShard(faultsim.ShardJob{K: 1, Shard: 0, N: 10}); !reflect.DeepEqual(tally, want) {
		t.Errorf("executed shard tally %+v, want %+v", tally, want)
	}
}
