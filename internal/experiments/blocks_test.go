package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"hmem/internal/core"
	"hmem/internal/faultsim"
	"hmem/internal/workload"
)

// wireDelegate simulates the cluster path inside one process: every block is
// JSON round-tripped (as the HTTP transport would) and executed on a second,
// independent Runner built from the same options — the worker.
type wireDelegate struct {
	worker *Runner
	blocks int
	shards int
}

func (d *wireDelegate) RunBlock(ctx context.Context, key BlockKey) (*BlockPayload, error) {
	d.blocks++
	p, err := d.worker.ExecuteBlock(ctx, key)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	var out BlockPayload
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (d *wireDelegate) RunStudyShards(ctx context.Context, tier int, jobs []faultsim.ShardJob) ([]faultsim.ShardTally, error) {
	d.shards += len(jobs)
	out := make([]faultsim.ShardTally, len(jobs))
	for i, j := range jobs {
		t, err := d.worker.RunStudyShard(tier, j)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		var rt faultsim.ShardTally
		if err := json.Unmarshal(raw, &rt); err != nil {
			return nil, err
		}
		out[i] = rt
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
// experiments layer: every delegable block, executed on a different runner
// and shipped through JSON, must be bit-identical to local execution.
func TestDelegatedBlocksBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	local := mustRunner(t, blockTestOptions())
	coord := mustRunner(t, blockTestOptions())
	deleg := &wireDelegate{worker: mustRunner(t, blockTestOptions())}
	coord.SetDelegate(deleg)

	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}

	lp, err := local.ProfileOf(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := coord.ProfileOf(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lp, cp) {
		t.Error("delegated profile differs from local")
	}

	for _, policy := range []core.Policy{core.PerfFocused{}, core.Balanced{}, core.PerfFraction{F: 0.5}} {
		lr, err := local.RunStatic(ctx, spec, policy)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := coord.RunStatic(ctx, spec, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lr, cr) {
			t.Errorf("delegated static %s differs from local", policy.Name())
		}
	}

	for _, mech := range []string{mechFC, mechCC} {
		build, warm, ok := mechanismByName(mech, local.opts)
		if !ok {
			t.Fatalf("mechanismByName(%q) unresolvable", mech)
		}
		lr, err := local.RunDynamic(ctx, spec, mech, build, warm)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := coord.RunDynamic(ctx, spec, mech, build, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lr, cr) {
			t.Errorf("delegated dynamic %s differs from local", mech)
		}
	}

	la, err := local.RunAnnotation(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := coord.RunAnnotation(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la, ca) {
		t.Error("delegated annotation differs from local")
	}

	lf, err := local.Fits(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := coord.Fits(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lf, cf) {
		t.Error("delegated fault study differs from local")
	}

	if deleg.blocks == 0 || deleg.shards == 0 {
		t.Errorf("delegate not exercised: %d blocks, %d shards", deleg.blocks, deleg.shards)
	}
}

type funcDelegate struct {
	block func(context.Context, BlockKey) (*BlockPayload, error)
	study func(context.Context, int, []faultsim.ShardJob) ([]faultsim.ShardTally, error)
}

func (d funcDelegate) RunBlock(ctx context.Context, key BlockKey) (*BlockPayload, error) {
	return d.block(ctx, key)
}

func (d funcDelegate) RunStudyShards(ctx context.Context, tier int, jobs []faultsim.ShardJob) ([]faultsim.ShardTally, error) {
	return d.study(ctx, tier, jobs)
}

func TestDelegateNotDelegatedFallsBackLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ctx := context.Background()
	r := mustRunner(t, blockTestOptions())
	calls := 0
	r.SetDelegate(funcDelegate{
		block: func(context.Context, BlockKey) (*BlockPayload, error) {
			calls++
			return nil, ErrNotDelegated
		},
		study: func(context.Context, int, []faultsim.ShardJob) ([]faultsim.ShardTally, error) {
			calls++
			return nil, ErrNotDelegated
		},
	})
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
	if calls == 0 {
		t.Error("delegate never offered any block")
	}
}

func TestDelegateErrorPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	boom := errors.New("digest mismatch on worker")
	r := mustRunner(t, blockTestOptions())
	r.SetDelegate(funcDelegate{
		block: func(context.Context, BlockKey) (*BlockPayload, error) { return nil, boom },
		study: func(context.Context, int, []faultsim.ShardJob) ([]faultsim.ShardTally, error) { return nil, boom },
	})
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

func TestDelegableStatic(t *testing.T) {
	for _, p := range core.StaticPolicies() {
		if !delegableStatic(p) {
			t.Errorf("lineup policy %s should be delegable", p.Name())
		}
	}
	if !delegableStatic(core.PerfFraction{F: 0.25}) {
		t.Error("perf-fraction-0.250 should be delegable (name round-trips)")
	}
	// 1/3 does not survive the three-decimal rendering: the remote side
	// would rebuild a slightly different fraction, so it must stay local.
	if delegableStatic(core.PerfFraction{F: 1.0 / 3.0}) {
		t.Error("perf-fraction with non-representable F must not be delegated")
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
	if _, err := r.RunStudyShard(0, faultsim.ShardJob{K: 0, Shard: 0, N: 10}); err == nil {
		t.Error("K=0 shard should be rejected")
	}
	if _, err := r.RunStudyShard(0, faultsim.ShardJob{K: study.MaxFaults + 1, Shard: 0, N: 10}); err == nil {
		t.Error("K beyond MaxFaults should be rejected")
	}
}
