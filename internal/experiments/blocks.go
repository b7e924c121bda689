package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"hmem/internal/faultsim"
	"hmem/internal/workload"
)

// This file is the runner's distribution seam. Every expensive building
// block — profiling runs, static-policy runs, dynamic-mechanism runs,
// annotation runs, and fault-study Monte-Carlo shards — is described by one
// Block, executed on any node holding the same binary and options, and
// merged back bit-identically (Go's encoding/json round-trips float64
// exactly, and fault tallies are integers). A Runner with a Delegate
// installed offers it each block that Runner.start resolves, before
// computing it; ErrNotDelegated (or no delegate) falls back to local
// computation, so a coordinator without workers degrades to exactly the
// standalone behavior.

// BlockKind names a kind of Block.
type BlockKind string

const (
	// BlockProfile is a workload's DDR-only oracle profiling run.
	BlockProfile BlockKind = "profile"
	// BlockStatic is a static-policy placement run; Name is the policy name.
	BlockStatic BlockKind = "static"
	// BlockDynamic is a migration run; Name is the mechanism name.
	BlockDynamic BlockKind = "dynamic"
	// BlockAnnotation is the §7 annotation-pinning run.
	BlockAnnotation BlockKind = "annotation"
	// BlockAnnotatedMigration is the §7 extension: annotation pins plus
	// Full Counter migration over the remaining HBM frames.
	BlockAnnotatedMigration BlockKind = "annotation+fc"
	// BlockFaultShard is one Monte-Carlo shard (Job) of tier Tier's fault
	// study.
	BlockFaultShard BlockKind = "fault-shard"
)

// Block is the unit of distributable work within a fixed option set: one
// memoized simulation or one fault-study shard. The same value is the
// runner's memo key, names its span ("experiments.<kind>"), is what a
// Delegate ships, and is the work a cluster shard carries.
type Block struct {
	Kind     BlockKind `json:"kind"`
	Workload string    `json:"workload,omitempty"`
	// Name is the static policy's or the dynamic mechanism's name.
	Name string `json:"name,omitempty"`
	// Tier and Job select a fault-study shard.
	Tier int               `json:"tier,omitempty"`
	Job  faultsim.ShardJob `json:"job"`
}

// Validate rejects blocks that no node could execute: a simulation block
// needs a workload, a static or dynamic one also a name, and a fault shard
// positive trials and stratum.
func (b Block) Validate() error {
	var complete bool
	switch b.Kind {
	case BlockProfile, BlockAnnotation, BlockAnnotatedMigration:
		complete = b.Workload != ""
	case BlockStatic, BlockDynamic:
		complete = b.Workload != "" && b.Name != ""
	case BlockFaultShard:
		complete = b.Job.N > 0 && b.Job.K >= 1
	default:
		return fmt.Errorf("experiments: unknown block kind %q", b.Kind)
	}
	if !complete {
		return fmt.Errorf("experiments: incomplete %s block %+v", b.Kind, b)
	}
	return nil
}

// ErrNotDelegated is the Delegate's "compute it locally" answer. It must be
// returned for any block the delegate cannot currently place (no live
// workers) — any other error is treated as the block's deterministic
// outcome and propagated.
var ErrNotDelegated = errors.New("experiments: block not delegated")

// Delegate executes blocks somewhere else — in practice the hmemd
// coordinator's cluster scheduler. Run returns each block's payload, in
// block order, as Execute encodes it; payloads must be bit-identical to
// local execution (the service guards this with an options-digest check on
// every shard).
type Delegate interface {
	Run(ctx context.Context, blocks []Block) ([]json.RawMessage, error)
}

// SetDelegate installs the distribution delegate. Install before serving
// requests; blocks already computed stay cached locally either way.
func (r *Runner) SetDelegate(d Delegate) {
	r.delegateMu.Lock()
	r.delegate = d
	r.delegateMu.Unlock()
}

// offer hands blocks to the delegate. ok reports whether the payloads
// answer them; (nil, false, nil) means "compute locally".
func (r *Runner) offer(ctx context.Context, blocks ...Block) (payloads []json.RawMessage, ok bool, err error) {
	r.delegateMu.RLock()
	d := r.delegate
	r.delegateMu.RUnlock()
	if d == nil {
		return nil, false, nil
	}
	payloads, err = d.Run(ctx, blocks)
	if errors.Is(err, ErrNotDelegated) {
		return nil, false, nil
	}
	return payloads, err == nil, err
}

// decodePayload reads a delegated simulation block's payload: a Profile
// for a profile block, the scored sim.Result for any other.
func decodePayload(b Block, raw json.RawMessage) (*Profile, error) {
	p := &Profile{}
	var into any = &p.Result
	if b.Kind == BlockProfile {
		into = p
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return nil, fmt.Errorf("experiments: undecodable %s payload: %w", b.Kind, err)
	}
	return p, nil
}

// Execute runs one block locally and returns its JSON payload — the worker
// side of the distribution seam. A profile block's payload is its Profile,
// a fault shard's its faultsim.ShardTally, and any other block's its scored
// sim.Result. Simulations flow through the same memoized paths as a native
// request, so a worker's cache warms exactly as if the work had arrived
// over the normal API.
func (r *Runner) Execute(ctx context.Context, b Block) (json.RawMessage, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	v, err := r.execute(ctx, b)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// execute runs a valid block through its memoized path (a fault shard
// through its tier's study) and returns the value Execute encodes.
func (r *Runner) execute(ctx context.Context, b Block) (any, error) {
	if b.Kind == BlockFaultShard {
		study, ok, err := r.StudyForTier(b.Tier)
		switch {
		case err != nil:
			return nil, err
		case !ok:
			return nil, fmt.Errorf("experiments: tier %d has a fixed FIT, no study to shard", b.Tier)
		case b.Job.K > study.MaxFaults:
			return nil, fmt.Errorf("experiments: invalid shard job %+v", b.Job)
		}
		return study.RunShard(b.Job), nil
	}
	spec, err := workload.SpecByName(b.Workload)
	if err != nil {
		return nil, err
	}
	if b.Kind == BlockProfile {
		return r.ProfileOf(ctx, spec)
	}
	return r.result(ctx, spec, b)
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
