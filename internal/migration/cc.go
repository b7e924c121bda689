package migration

import (
	"cmp"
	"slices"

	"hmem/internal/core"
	"hmem/internal/mea"
	"hmem/internal/sim"
)

// CrossCounter is the §6.4 hardware-cost-optimized mechanism: a performance
// unit built on a k-entry MEA summary pushes a small set of globally hot
// pages into HBM every MEA-interval, while a reliability unit keeps full
// 16-bit read/write counters for HBM residents only and, every FC-interval,
// flushes the pages it has classified as high-risk (or cold) back to DDR.
// Migrations are performed by the hardware remap table concurrently with
// execution (MemPod-style), so cores do not take an OS pause; the traffic
// still contends with demand requests in the memory system.
type CrossCounter struct {
	meaInterval int64
	fcRatio     int // FC interval = fcRatio × MEA interval
	tick        int
	perf        *mea.Tracker
	risk        *core.FullCounters
	pt          *core.PageTable
	hotScratch  []mea.Entry
	hotPages    []pageCount
	pendingOut  []uint64
	// blocked maps pages the reliability unit classified high-risk to the
	// epoch of that verdict; the performance unit's in-migration query
	// skips them for blockEpochs epochs (§6.4.3: "the performance unit
	// also queries the reliability unit"). Without this memory, a hot
	// high-risk page bounces back one MEA interval after every flush and
	// the mechanism never reduces exposure — the pathology the paper
	// describes for astar, here bounded.
	blocked     map[uint64]int
	epoch       int
	blockEpochs int
	evictFactor float64
}

// NewCrossCounter builds the CC mechanism: a 32-entry MEA unit deciding
// every meaIntervalCycles, and a risk epoch every fcRatio MEA intervals
// (the paper: 50 µs and 100 ms — a ratio of 2000 at full scale; experiments
// preserve a large ratio at reduced scale).
func NewCrossCounter(meaIntervalCycles int64, fcRatio int, meaEntries int) *CrossCounter {
	if fcRatio < 1 {
		fcRatio = 1
	}
	if meaEntries <= 0 {
		meaEntries = 32
	}
	return &CrossCounter{
		meaInterval: meaIntervalCycles,
		fcRatio:     fcRatio,
		perf:        mea.New(meaEntries),
		risk:        core.NewFullCounters(16),
		blocked:     make(map[uint64]int),
		blockEpochs: 4,
		evictFactor: 0.5,
	}
}

// Name implements sim.Migrator.
func (c *CrossCounter) Name() string { return "cc-reliability" }

// Bind implements sim.Migrator.
func (c *CrossCounter) Bind(pt *core.PageTable) { c.pt = pt }

// SetBlockEpochs overrides how many FC epochs a high-risk verdict keeps a
// page out of HBM (default 4; 0 disables the blacklist entirely). Exposed
// for the ablation study.
func (c *CrossCounter) SetBlockEpochs(n int) {
	if n < 0 {
		n = 0
	}
	c.blockEpochs = n
}

// SetEvictHysteresis overrides the eviction threshold factor: a resident is
// flushed when its Wr/Rd falls below factor x the epoch mean (default 0.5;
// 1.0 reproduces a strict mean split). Exposed for the ablation study.
func (c *CrossCounter) SetEvictHysteresis(f float64) {
	if f <= 0 {
		f = 1
	}
	c.evictFactor = f
}

// IntervalCycles implements sim.Migrator (the fine-grained MEA interval).
func (c *CrossCounter) IntervalCycles() int64 { return c.meaInterval }

// MigratesConcurrently marks CC's migrations as hardware-performed: no OS
// pause, only memory-system contention (see sim.pauseAll).
func (c *CrossCounter) MigratesConcurrently() bool { return true }

// OnAccess implements sim.Migrator: the performance unit sees every access;
// the reliability unit tracks only HBM residents.
func (c *CrossCounter) OnAccess(pi core.PageIndex, write bool, inHBM bool) {
	c.perf.Observe(uint32(pi))
	if inHBM {
		c.risk.Observe(pi, write)
	}
}

// pageCount is one MEA entry resolved to its page id.
type pageCount struct {
	page  uint64
	count uint64
}

// hotSet resolves the MEA unit's tracked entries to page ids, ordered by
// descending residual count (ties by page id) — the deterministic ranking
// the id-keyed summary used to produce directly.
func (c *CrossCounter) hotSet() []pageCount {
	c.hotScratch = c.perf.Hot(c.hotScratch[:0])
	c.hotPages = c.hotPages[:0]
	for _, e := range c.hotScratch {
		c.hotPages = append(c.hotPages, pageCount{page: c.pt.ID(core.PageIndex(e.Index)), count: e.Count})
	}
	slices.SortFunc(c.hotPages, func(a, b pageCount) int {
		if o := cmp.Compare(b.count, a.count); o != 0 {
			return o
		}
		return cmp.Compare(a.page, b.page)
	})
	return c.hotPages
}

// Decide implements sim.Migrator. Every MEA interval the performance unit
// migrates its hot set into HBM, paired against any pending high-risk pages
// identified at the last FC epoch (or cold HBM pages when none are pending).
func (c *CrossCounter) Decide(_ int64, placement *sim.Placement) (in, out []uint64) {
	c.tick++
	epoch := c.tick%c.fcRatio == 0
	if epoch {
		c.epoch++
		c.pendingOut = c.riskEpoch(placement)
		if c.blockEpochs > 0 {
			for _, page := range c.pendingOut {
				c.blocked[page] = c.epoch
			}
		}
		for page, at := range c.blocked {
			if c.epoch-at >= c.blockEpochs {
				delete(c.blocked, page)
			}
		}
	}

	for _, e := range c.hotSet() {
		if _, bad := c.blocked[e.page]; !bad && !placement.InHBM(e.page) {
			in = append(in, e.page)
		}
	}
	c.perf.Reset()

	if epoch {
		// "At FC-interval, both performance and reliability units work
		// together to move cold and high-risk pages out of HBM": flush the
		// whole pending list now.
		out = c.drainPending(len(c.pendingOut))
	} else {
		// Between epochs, evictions happen only to make room for the
		// performance unit's in-migrations.
		need := len(in) - placement.HBMFreePages()
		if need < 0 {
			need = 0
		}
		out = c.drainPending(need)
	}

	budget := placement.HBMFreePages() + len(out)
	if len(in) > budget {
		in = in[:budget] // surplus retries next MEA interval
	}
	return in, out
}

// drainPending removes up to n pages from the pending high-risk list (all
// of them at an FC epoch flush where n exceeds the list).
func (c *CrossCounter) drainPending(n int) []uint64 {
	if n > len(c.pendingOut) {
		n = len(c.pendingOut)
	}
	out := c.pendingOut[:n]
	c.pendingOut = c.pendingOut[n:]
	return out
}

// riskEpoch classifies every HBM resident with the reliability unit's
// counters: pages that are high-risk (write ratio below the epoch mean) or
// entirely cold leave HBM.
func (c *CrossCounter) riskEpoch(placement *sim.Placement) []uint64 {
	snap := c.risk.Snapshot(c.pt)
	defer c.risk.Reset()
	if len(snap) == 0 {
		return nil
	}
	meanRisk := meanWrRatio(snap)
	var outCand []core.PageStats
	for _, page := range placement.HBMPages() {
		if placement.Pinned(page) {
			continue
		}
		s, touched := intervalStats(c.risk, c.pt, page)
		// Hysteresis (as in the FC mechanism) so a uniformly low-risk
		// resident set does not churn against its own mean.
		if !touched || s.WrRatio() < c.evictFactor*meanRisk {
			outCand = append(outCand, s)
		}
	}
	// Unlike the in-migration path, eviction is uncapped: leaving a
	// high-risk page in HBM for another full FC epoch is exactly the
	// reliability exposure the mechanism exists to bound (§6.4.3).
	return pagesByHotnessAsc(outCand)
}
