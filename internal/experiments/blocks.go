package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"hmem/internal/core"
	"hmem/internal/faultsim"
	"hmem/internal/sim"
	"hmem/internal/workload"
)

// This file is the runner's distribution seam. Every expensive memoized
// building block — profiling runs, static-policy runs, dynamic-mechanism
// runs, annotation runs, and fault-study Monte-Carlo shards — can be
// described by a small wire key, executed on any node holding the same
// binary and options, and merged back bit-identically (Go's encoding/json
// round-trips float64 exactly, and fault tallies are integers). A Runner
// with a Delegate installed offers each block to it first; ErrNotDelegated
// (or no delegate) falls back to local computation, so a coordinator without
// workers degrades to exactly the standalone behavior.

// BlockKind names a delegable building block.
type BlockKind string

const (
	// BlockProfile is a workload's DDR-only oracle profiling run.
	BlockProfile BlockKind = "profile"
	// BlockStatic is a static-policy placement run; Policy is the policy name.
	BlockStatic BlockKind = "static"
	// BlockDynamic is a migration run; Policy is the mechanism memo name.
	BlockDynamic BlockKind = "dynamic"
	// BlockAnnotation is the §7 annotation-pinning run.
	BlockAnnotation BlockKind = "annotation"
)

// BlockKey identifies one delegable block within a fixed option set.
type BlockKey struct {
	Kind     BlockKind `json:"kind"`
	Workload string    `json:"workload"`
	Policy   string    `json:"policy,omitempty"`
}

// BlockPayload is a block's result as shipped between nodes: the scored
// run the worker memoized, without a snapshot. Profile blocks also carry
// the workload's structure layout and per-page stats (placement and
// annotation need them). The worker scores with its own fits, which the
// options-digest check on every shard makes equal to the coordinator's.
type BlockPayload struct {
	Result     sim.Result           `json:"result"`
	Structures []workload.Structure `json:"structures,omitempty"`
	Stats      []core.PageStats     `json:"stats,omitempty"`
}

// ErrNotDelegated is the Delegate's "compute it locally" answer. It must be
// returned for any shard the delegate cannot currently place (no live
// workers, unresolvable mechanism) — any other error is treated as the
// block's deterministic outcome and propagated.
var ErrNotDelegated = errors.New("experiments: block not delegated")

// Delegate executes building blocks somewhere else — in practice the hmemd
// coordinator's cluster scheduler. Implementations must return payloads that
// are bit-identical to local execution (the service guards this with an
// options-digest check on every shard).
type Delegate interface {
	// RunBlock executes one simulation block remotely.
	RunBlock(ctx context.Context, key BlockKey) (*BlockPayload, error)
	// RunStudyShards executes a tier's fault-study Monte-Carlo shards
	// remotely, returning tallies in job order.
	RunStudyShards(ctx context.Context, tier int, jobs []faultsim.ShardJob) ([]faultsim.ShardTally, error)
}

// SetDelegate installs the distribution delegate. Install before serving
// requests; blocks already computed stay cached locally either way.
func (r *Runner) SetDelegate(d Delegate) {
	r.delegateMu.Lock()
	r.delegate = d
	r.delegateMu.Unlock()
}

func (r *Runner) getDelegate() Delegate {
	r.delegateMu.RLock()
	defer r.delegateMu.RUnlock()
	return r.delegate
}

// delegateBlock offers a block to the delegate. ok reports whether the
// payload answers the block; (false, nil) means "compute locally".
func (r *Runner) delegateBlock(ctx context.Context, key BlockKey) (*BlockPayload, bool, error) {
	d := r.getDelegate()
	if d == nil {
		return nil, false, nil
	}
	p, err := d.RunBlock(ctx, key)
	if errors.Is(err, ErrNotDelegated) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// ExecuteBlock runs one block locally by its wire key — the worker side of
// the distribution seam. Execution flows through the same memoized building
// blocks as a native request, so a worker's cache warms exactly as if the
// work had arrived over the normal API.
func (r *Runner) ExecuteBlock(ctx context.Context, key BlockKey) (*BlockPayload, error) {
	spec, err := workload.SpecByName(key.Workload)
	if err != nil {
		return nil, err
	}
	switch key.Kind {
	case BlockProfile:
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return nil, err
		}
		return &BlockPayload{Result: prof.Result, Structures: prof.Structures, Stats: prof.Stats}, nil
	case BlockStatic:
		policy, ok := core.PolicyByName(key.Policy)
		if !ok {
			return nil, fmt.Errorf("experiments: unresolvable static policy %q", key.Policy)
		}
		res, err := r.RunStatic(ctx, spec, policy)
		if err != nil {
			return nil, err
		}
		return &BlockPayload{Result: res}, nil
	case BlockDynamic:
		res, err := r.runMechanism(ctx, spec, key.Policy)
		if err != nil {
			return nil, err
		}
		return &BlockPayload{Result: res}, nil
	case BlockAnnotation:
		res, err := r.RunAnnotation(ctx, spec)
		if err != nil {
			return nil, err
		}
		return &BlockPayload{Result: res}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown block kind %q", key.Kind)
	}
}

// StudyForTier returns the fault study a tier's FIT estimate runs, or
// ok=false when the tier carries a fixed FITPerGB (no study to shard). The
// study's Workers field is left at the runner's parallelism.
func (r *Runner) StudyForTier(tier int) (study *faultsim.Study, ok bool, err error) {
	if tier < 0 || tier >= len(r.topo.Tiers) {
		return nil, false, fmt.Errorf("experiments: tier %d out of range (topology has %d)", tier, len(r.topo.Tiers))
	}
	td := r.topo.Tiers[tier]
	if td.FITPerGB > 0 {
		return nil, false, nil
	}
	s := faultsim.NewStudy(td.Org, faultsim.SridharanTransient(), td.FaultSeed)
	s.Workers = r.opts.Parallel
	return s, true, nil
}

// RunStudyShard executes one fault-study Monte-Carlo shard locally by wire
// coordinates — the worker side of fault-study distribution.
func (r *Runner) RunStudyShard(tier int, job faultsim.ShardJob) (faultsim.ShardTally, error) {
	study, ok, err := r.StudyForTier(tier)
	if err != nil {
		return faultsim.ShardTally{}, err
	}
	if !ok {
		return faultsim.ShardTally{}, fmt.Errorf("experiments: tier %d has a fixed FIT, no study to shard", tier)
	}
	if job.N <= 0 || job.K < 1 || job.K > study.MaxFaults {
		return faultsim.ShardTally{}, fmt.Errorf("experiments: invalid shard job %+v", job)
	}
	return study.RunShard(job), nil
}

// delegableStatic reports whether a static policy can be delegated: its name
// must resolve back to an identical policy on the remote side. This guards
// the one lossy case — a PerfFraction whose fraction does not survive the
// three-decimal name rendering would select different pages remotely.
func delegableStatic(policy core.Policy) bool {
	resolved, ok := core.PolicyByName(policy.Name())
	return ok && reflect.DeepEqual(resolved, policy)
}
