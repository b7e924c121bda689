package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"hmem/internal/avf"
	"hmem/internal/core"
	"hmem/internal/memsim"
	"hmem/internal/obs"
	"hmem/internal/trace"
)

// Migrator is the interval-driven migration hook (§6 mechanisms). The
// simulator invokes OnAccess for every memory access and Decide at every
// IntervalCycles boundary; mechanisms with multiple internal intervals
// (Cross Counters) fire their coarser epoch internally on every Nth call.
//
// The per-access path runs on dense page indices: Run binds the placement's
// core.PageTable to the migrator before simulation starts, OnAccess receives
// interned indices, and Decide translates back to page ids (the public
// currency of placement decisions and snapshots).
type Migrator interface {
	Name() string
	// Bind attaches the run's interning table before the first access.
	// Indices passed to OnAccess are issued by this table.
	Bind(pt *core.PageTable)
	// OnAccess observes one access; inHBM reflects the page's tier at
	// access time (risk units that only track HBM use it to filter).
	OnAccess(pi core.PageIndex, write bool, inHBM bool)
	// Decide returns the pages to move into and out of HBM.
	Decide(now int64, placement *Placement) (in, out []uint64)
	// IntervalCycles is the finest decision interval in CPU cycles.
	IntervalCycles() int64
}

// Config parameterizes a run.
type Config struct {
	// HBM and DDR are the tier configurations (Table 1, possibly scaled).
	// They are ignored when Topology is set.
	HBM, DDR memsim.Config
	// Topology, when non-nil, replaces the HBM/DDR pair with an N-tier
	// machine: tier timings, capacities, allocation order, and the fast
	// (migration-target) tier all come from the topology. Nil keeps the
	// paper's two-tier default (tier 0 = DDR, tier 1 = HBM).
	Topology *core.Topology
	// IssueWidth is the non-memory IPC ceiling (Table 1: 4-wide).
	IssueWidth int
	// MaxOutstanding bounds in-flight reads per core, approximating the
	// MLP a 128-entry ROB sustains.
	MaxOutstanding int
	// WriteBufferCycles bounds how far a channel's backlog may run ahead of
	// a core issuing a write before the core stalls (finite write buffers).
	// 0 disables throttling.
	WriteBufferCycles int64
	// MigrationCostDiv scales per-page migration cost down at reduced time
	// scale: experiments shrink simulated time ~100x relative to the
	// paper's simpoints, so the absolute per-page transfer cost must shrink
	// proportionally to preserve the paper's migration-overhead-to-interval
	// ratio (~7%% of a 100 ms interval for 47K pages, §6.1). 0 or 1 means
	// full cost.
	MigrationCostDiv int
}

// DefaultConfig returns the Table 1 machine at a capacity scale divisor
// (scaleDiv=1 reproduces the paper's 1 GB + 16 GB; the experiments default
// to 64, i.e. 16 MB HBM + 256 MB DDR).
func DefaultConfig(scaleDiv int) Config {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return Config{
		HBM:               memsim.HBM(uint64(1<<30) / uint64(scaleDiv)),
		DDR:               memsim.DDR3(uint64(16<<30) / uint64(scaleDiv)),
		IssueWidth:        4,
		MaxOutstanding:    8,
		WriteBufferCycles: 512,
		// Time is scaled harder than capacity (runs are ~100x shorter than
		// a 100 ms interval); see the field comment.
		MigrationCostDiv: scaleDiv / 2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	} else {
		if err := c.HBM.Validate(); err != nil {
			return err
		}
		if err := c.DDR.Validate(); err != nil {
			return err
		}
	}
	if c.IssueWidth <= 0 {
		return fmt.Errorf("sim: IssueWidth must be positive")
	}
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("sim: MaxOutstanding must be positive")
	}
	return nil
}

// tierConfigs returns the per-tier memsim configurations in tier order plus
// the fast-tier index — [DDR, HBM] and 1 when no topology is installed.
func (c Config) tierConfigs() ([]memsim.Config, int) {
	if c.Topology != nil {
		out := make([]memsim.Config, len(c.Topology.Tiers))
		for i, td := range c.Topology.Tiers {
			out[i] = td.Mem
		}
		return out, c.Topology.FastTier
	}
	return []memsim.Config{c.DDR, c.HBM}, 1
}

// FastPages returns the fast (migration-target) tier's capacity in pages —
// the budget placement policies select against.
func (c Config) FastPages() uint64 {
	if c.Topology != nil {
		return c.Topology.FastPages()
	}
	return c.HBM.Pages()
}

// IntervalSample is one measurement-interval snapshot (taken at migration
// interval boundaries when a migrator is installed).
type IntervalSample struct {
	// EndCycle is the boundary cycle.
	EndCycle int64
	// Reads/Writes are the requests issued during the interval.
	Reads, Writes uint64
	// HBMFraction is the share of the interval's requests served by HBM.
	HBMFraction float64
	// PagesMoved is how many pages the boundary's migration decision moved.
	PagesMoved int
	// TouchedPages counts distinct pages accessed during the interval.
	TouchedPages int
	// HotSetChurn is the fraction of this interval's hot set (pages with
	// above-mean access counts) absent from the previous interval's hot
	// set — the paper's "the set of top hot pages changes considerably
	// from interval to interval" observation, quantified.
	HotSetChurn float64
}

// Result is the outcome of one run.
type Result struct {
	// Cycles is the wall-clock of the slowest core, including migration
	// pauses and final drain.
	Cycles int64
	// Instructions is the total committed instruction count (gaps plus one
	// per memory instruction) across cores.
	Instructions uint64
	// IPC is Instructions / Cycles / cores — per-core average IPC.
	IPC float64
	// Snapshot is the tier-attributed per-page AVF census.
	Snapshot []avf.PageAVF
	// PagesMigrated counts migrated pages; MigrationPauses the stalls paid.
	PagesMigrated   uint64
	MigrationPauses int64
	// HBMStats and DDRStats expose the fast tier's and tier 0's memory
	// controller counters (the two tiers of the default topology);
	// TierStats carries every tier's counters in tier order.
	HBMStats, DDRStats memsim.Stats
	TierStats          []memsim.Stats
	// Reads and Writes count memory requests issued.
	Reads, Writes uint64
	// HBMAccessFraction is the share of requests served by the fast tier.
	HBMAccessFraction float64
	// Endurance summarizes per-frame wear for write-budgeted tiers (nil for
	// topologies without endurance accounting, including the default).
	Endurance []TierEndurance
	// CoreIPC is the per-core IPC vector (instructions of core i over the
	// run's wall-clock).
	CoreIPC []float64
	// Intervals holds per-interval samples (only for migration runs).
	Intervals []IntervalSample
}

// MeanAVF returns the mean page AVF of the run (Figure 2 metric).
func (r Result) MeanAVF() float64 {
	if len(r.Snapshot) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range r.Snapshot {
		sum += p.AVF
	}
	return sum / float64(len(r.Snapshot))
}

// Stats converts the snapshot into policy inputs.
func (r Result) Stats() []core.PageStats {
	s := core.FromSnapshot(r.Snapshot)
	core.SortByPage(s)
	return s
}

// fifo is a queue on a ring buffer. Its array is reused and only grows
// (doubling, to a power of two) when the queue outgrows it, so a queue whose
// length stays bounded stops allocating.
type fifo[T any] struct {
	buf  []T
	head int // index of the front element
	n    int
}

func (q *fifo[T]) len() int { return q.n }

// at returns the i-th element from the front.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// pendingRead is a read occupying the core's outstanding window.
type pendingRead struct {
	req  *memsim.Request
	tier avf.Tier
}

type coreState struct {
	stream      trace.Stream
	time        int64
	done        bool
	outstanding fifo[pendingRead]
	insts       uint64

	// Request recycling: reads return to reqFree once Completed; posted
	// writes park in writeRing until the controller retires them. Both pools
	// are bounded by the ROB window and the channels' queue depths, so the
	// steady-state access path performs no Request allocation.
	reqFree   []*memsim.Request
	writeRing fifo[*memsim.Request]
}

// getRequest returns a recycled Request when one is available, reclaiming
// any posted writes the memory controller has since retired.
func (c *coreState) getRequest(line uint64, write bool, arrival int64) *memsim.Request {
	for c.writeRing.len() > 0 && c.writeRing.at(0).Finished() {
		c.reqFree = append(c.reqFree, c.writeRing.pop())
	}
	if n := len(c.reqFree); n > 0 {
		r := c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
		r.Reset(line, write, arrival)
		return r
	}
	return &memsim.Request{Line: line, Write: write, Arrival: arrival}
}

// Run simulates streams (one per core) against the configured HMA.
// initialHBM pages are preplaced in HBM (pin pins them against migration);
// mig may be nil for static placements.
func Run(cfg Config, streams []trace.Stream, initialHBM []uint64, pin bool, mig Migrator) (Result, error) {
	return RunCtx(context.Background(), cfg, streams, initialHBM, pin, mig)
}

// simMetrics holds the registry handles a run touches, hoisted out of the
// loop so the per-access path never consults the context. The zero value
// (no registry in ctx) makes every record call a cheap nil check.
type simMetrics struct {
	runs, epochs, migrated *obs.Counter
}

func newSimMetrics(ctx context.Context) simMetrics {
	reg := obs.RegistryFrom(ctx)
	if reg == nil {
		return simMetrics{}
	}
	return simMetrics{
		runs:     reg.Counter("hmem_sim_runs_total", "Completed simulator runs."),
		epochs:   reg.Counter("hmem_sim_epochs_total", "Migration-interval boundaries crossed."),
		migrated: reg.Counter("hmem_sim_pages_migrated_total", "Pages moved between tiers by migration decisions."),
	}
}

// RunCtx is Run with observability: the run is wrapped in a "sim.run" span,
// every migration-interval boundary closes a "sim.epoch" span carrying the
// boundary cycle, pages moved, and distinct pages touched, and a registry in
// ctx accumulates run/epoch/migration counters. The per-access hot loop is
// untouched — all context lookups happen once, before the first access — so
// with no tracer or registry installed RunCtx costs exactly what Run did.
// ctx is not consulted for cancellation (runs have no preemption points).
func RunCtx(ctx context.Context, cfg Config, streams []trace.Stream, initialHBM []uint64, pin bool, mig Migrator) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(streams) == 0 {
		return Result{}, errors.New("sim: no core streams")
	}

	// All observability state is resolved here, once; the per-access loop
	// below never consults the context.
	traced := obs.Enabled(ctx)
	metrics := newSimMetrics(ctx)
	var runSpan, epochSpan *obs.Span
	if traced {
		policy := "static"
		if mig != nil {
			policy = mig.Name()
		}
		ctx, runSpan = obs.Start(ctx, "sim.run",
			obs.Int("cores", int64(len(streams))), obs.Str("policy", policy))
		// The deferred closure only exists when traced: an unconditional
		// defer would box runSpan/epochSpan (both reassigned below) and
		// charge the untraced path heap allocations it must not make.
		defer func() {
			epochSpan.End()
			runSpan.End()
		}()
	}

	tierCfgs, fast := cfg.tierConfigs()
	mems := make([]*memsim.Memory, len(tierCfgs))
	for i, tc := range tierCfgs {
		mems[i] = memsim.New(tc)
	}
	fastTier := avf.Tier(fast)
	var placement *Placement
	if cfg.Topology != nil {
		placement = NewTopologyPlacement(cfg.Topology)
	} else {
		placement = NewPlacement(cfg.HBM.Pages(), cfg.DDR.Pages())
	}
	if err := placement.Preplace(initialHBM, pin); err != nil {
		return Result{}, err
	}
	pt := placement.PageTable()
	tracker := avf.NewTrackerN(len(tierCfgs))

	cores := make([]*coreState, len(streams))
	for i, s := range streams {
		cores[i] = &coreState{stream: s}
	}

	var res Result
	var nextInterval int64
	iv := newIntervalState()
	concurrent := false
	if mig != nil {
		if mig.IntervalCycles() <= 0 {
			return Result{}, fmt.Errorf("sim: migrator %s has non-positive interval", mig.Name())
		}
		mig.Bind(pt)
		nextInterval = mig.IntervalCycles()
		if traced {
			_, epochSpan = obs.Start(ctx, "sim.epoch")
		}
		// Hardware mechanisms (MemPod-style remap tables) migrate without
		// an OS pause; their traffic still contends in the memory system.
		if cm, ok := mig.(interface{ MigratesConcurrently() bool }); ok && cm.MigratesConcurrently() {
			concurrent = true
		}
	}

	active := len(cores)
	for active > 0 {
		// Pick the core with the smallest local clock.
		var c *coreState
		for _, cand := range cores {
			if cand.done {
				continue
			}
			if c == nil || cand.time < c.time {
				c = cand
			}
		}

		// Interval boundary: once the laggard core passes it, every core
		// has, so the decision uses a consistent global state.
		if mig != nil && c.time >= nextInterval {
			in, out := mig.Decide(nextInterval, placement)
			moved := applyMigration(cores, mems, placement, tracker, in, out, concurrent, cfg.MigrationCostDiv, &res)
			sample := iv.sample(nextInterval, moved)
			res.Intervals = append(res.Intervals, sample)
			if metrics.epochs != nil {
				metrics.epochs.Inc()
				metrics.migrated.Add(uint64(moved))
			}
			if traced {
				epochSpan.SetAttrs(
					obs.Int("end_cycle", nextInterval),
					obs.Int("moved", int64(moved)),
					obs.Int("touched", int64(sample.TouchedPages)))
				epochSpan.End()
				_, epochSpan = obs.Start(ctx, "sim.epoch")
			}
			nextInterval += mig.IntervalCycles()
			continue
		}

		rec, err := c.stream.Next()
		if errors.Is(err, io.EOF) {
			c.done = true
			active--
			continue
		}
		if err != nil {
			return Result{}, fmt.Errorf("sim: core stream: %w", err)
		}

		// Execute the non-memory gap at the issue-width ceiling.
		c.time += int64(rec.Gap) / int64(cfg.IssueWidth)
		c.insts += uint64(rec.Gap) + 1

		// The hot path: one sparse→dense translation (Intern), then every
		// bookkeeping structure below is a flat array index.
		pi := placement.Intern(rec.Page())
		lineInPage := int(rec.Line() % trace.LinesPerPage)
		tier, frame, err := placement.LookupIndex(pi)
		if err != nil {
			return Result{}, fmt.Errorf("sim: placing page %d: %w", rec.Page(), err)
		}
		write := rec.Kind.IsWrite()

		tracker.Access(uint32(pi), lineInPage, c.time, write, tier)
		if mig != nil {
			mig.OnAccess(pi, write, tier == fastTier)
			iv.observe(pi, write, tier == fastTier)
		}

		req := c.getRequest(frame*trace.LinesPerPage+uint64(lineInPage), write, c.time)
		mem := mems[tier]
		mem.Enqueue(req)
		if write {
			placement.RecordWrite(tier, frame)
			c.writeRing.push(req)
			res.Writes++
			if cfg.WriteBufferCycles > 0 {
				if lag := mem.Horizon(req.Line) - c.time; lag > cfg.WriteBufferCycles {
					c.time = mem.Horizon(req.Line) - cfg.WriteBufferCycles
				}
			}
		} else {
			res.Reads++
			// Reads occupy the outstanding window; block on the oldest
			// when the window is full (ROB head stall).
			c.outstanding.push(pendingRead{req, tier})
			if c.outstanding.len() > cfg.MaxOutstanding {
				oldest := c.outstanding.pop()
				if fin := mems[oldest.tier].Complete(oldest.req); fin > c.time {
					c.time = fin
				}
				c.reqFree = append(c.reqFree, oldest.req)
			}
		}
		if tier == fastTier {
			res.HBMAccessFraction++ // accumulate count; normalized below
		}
	}

	// Drain: every core waits for its remaining reads.
	for _, c := range cores {
		for i := 0; i < c.outstanding.len(); i++ {
			r := c.outstanding.at(i)
			if fin := mems[r.tier].Complete(r.req); fin > c.time {
				c.time = fin
			}
		}
	}
	for _, m := range mems {
		m.Drain()
	}

	var last int64 = 1
	for _, c := range cores {
		res.Instructions += c.insts
		if c.time > last {
			last = c.time
		}
	}
	res.Cycles = last
	res.IPC = float64(res.Instructions) / float64(last) / float64(len(cores))
	res.CoreIPC = make([]float64, len(cores))
	for i, c := range cores {
		res.CoreIPC[i] = float64(c.insts) / float64(last)
	}
	res.Snapshot = tracker.Snapshot(last, pt.IDs())
	res.PagesMigrated = placement.Migrations()
	res.TierStats = make([]memsim.Stats, len(mems))
	for i, m := range mems {
		res.TierStats[i] = m.Stats()
	}
	res.HBMStats = res.TierStats[fast]
	res.DDRStats = res.TierStats[0]
	res.Endurance = placement.Endurance()
	if total := res.Reads + res.Writes; total > 0 {
		res.HBMAccessFraction /= float64(total)
	}
	if metrics.runs != nil {
		metrics.runs.Inc()
	}
	if traced {
		runSpan.SetAttrs(
			obs.Int("cycles", res.Cycles),
			obs.Float("ipc", res.IPC),
			obs.Int("pages_migrated", int64(res.PagesMigrated)),
			obs.Int("epochs", int64(len(res.Intervals))))
	}
	return res, nil
}

// applyMigration executes a migration decision. OS-assisted mechanisms
// stall every core for the transfer time of the slowest participating tier
// (§6.1: "the cost of migrating a page ... is governed by the slowest
// memory in the system"); concurrent hardware mechanisms skip the stall but
// still inject the transfer traffic into the participating memory systems.
// Participants are the fast tier plus the allocation chain — both tiers of
// the default topology.
func applyMigration(cores []*coreState, mems []*memsim.Memory, placement *Placement,
	tracker *avf.Tracker, in, out []uint64, concurrent bool, costDiv int, res *Result) int {
	// Migrate filters pinned/mismatched entries and reports actual moves.
	moved := placement.Migrate(in, out)
	if moved == 0 {
		return 0
	}
	pt := placement.PageTable()
	fastIdx := placement.FastTier()
	fast := avf.Tier(fastIdx)
	for _, page := range in {
		if pi, ok := pt.Find(page); ok && placement.InHBMIndex(pi) {
			tracker.MigratePage(uint32(pi), fast)
		}
	}
	for _, page := range out {
		if pi, ok := pt.Find(page); ok {
			if t, placed := placement.TierOfIndex(pi); placed && t != fast {
				tracker.MigratePage(uint32(pi), t)
			}
		}
	}
	pause := mems[fastIdx].BulkTransferCycles(moved)
	for _, t := range placement.AllocTiers() {
		if t == fastIdx {
			continue
		}
		if b := mems[t].BulkTransferCycles(moved); b > pause {
			pause = b
		}
	}
	if costDiv > 1 {
		pause /= int64(costDiv)
	}
	mems[fastIdx].RecordBulkTransfer(moved, pause)
	for _, t := range placement.AllocTiers() {
		if t != fastIdx {
			mems[t].RecordBulkTransfer(moved, pause)
		}
	}
	if concurrent {
		return moved
	}
	var latest int64
	for _, c := range cores {
		if !c.done && c.time > latest {
			latest = c.time
		}
	}
	resume := latest + pause
	for _, c := range cores {
		if !c.done && c.time < resume {
			c.time = resume
		}
	}
	for _, m := range mems {
		m.AdvanceTo(resume)
	}
	res.MigrationPauses += pause
	return moved
}
