// Package sim is the full-system simulator: 16 trace-driven cores with an
// analytic out-of-order model, the tiered memory system from memsim, AVF
// tracking, activity counters, and interval-driven migration hooks. It is
// the stand-in for the paper's extended Ramulator (§3.1).
package sim

import (
	"errors"
	"fmt"

	"hmem/internal/avf"
	"hmem/internal/core"
)

// Per-page state flags in Placement.flags.
const (
	pagePlaced uint8 = 1 << iota // a frame has been assigned
	pagePinned                   // never migrates (annotation)
)

// Placement is the system page table over an N-tier topology: it maps global
// page ids to (tier, frame), allocates frames on first touch following the
// topology's allocation order (spilling to the next tier when one runs out
// of frames), and performs migrations into and out of the fast tier. Pinned
// pages (program annotations, §7) never migrate.
//
// Placement holds the run's core.PageTable: all per-page state (tier,
// frame, pin) lives in flat slices indexed by the table's dense indices and
// sized once for it, so the per-access LookupIndex path performs no map
// operations and no allocations. The id-keyed methods (Preplace, Migrate,
// InHBM, HBMPages, ...) remain the public API of migrators and
// experiments; the HBM-named methods answer for the fast tier.
//
// Tiers with a write budget get per-frame wear counters (RecordWrite); the
// default topology has none, so the write path pays one boolean check.
type Placement struct {
	pt *core.PageTable

	// Static tier shape (from the topology).
	names      []string
	capacity   []uint64 // pages per tier
	allocOrder []int
	fast       int

	// Per-page state, indexed by PageIndex.
	flags []uint8
	tier  []uint8  // valid iff pagePlaced
	frame []uint64 // valid iff pagePlaced

	// Per-tier state.
	free     [][]uint64 // free frames, descending so frame 0 is used first
	resident []int

	// Endurance accounting: wear[t] is per-frame write counts, non-nil only
	// for tiers with a budget; hasWear gates the whole path off for
	// topologies without endurance-limited tiers.
	hasWear bool
	budget  []uint64
	wear    [][]uint32

	migrations uint64
}

// NewTopologyPlacement builds a placement of pt's pages over a validated
// topology, with no page placed yet.
func NewTopologyPlacement(topo *core.Topology, pt *core.PageTable) *Placement {
	n := len(topo.Tiers)
	p := &Placement{
		pt:         pt,
		flags:      make([]uint8, pt.Len()),
		tier:       make([]uint8, pt.Len()),
		frame:      make([]uint64, pt.Len()),
		names:      make([]string, n),
		capacity:   make([]uint64, n),
		allocOrder: append([]int(nil), topo.AllocOrder...),
		fast:       topo.FastTier,
		free:       make([][]uint64, n),
		resident:   make([]int, n),
		budget:     make([]uint64, n),
		wear:       make([][]uint32, n),
	}
	for t, td := range topo.Tiers {
		pages := td.Mem.Pages()
		p.names[t], p.capacity[t], p.budget[t] = td.Name, pages, td.WriteBudget
		// Free lists hand out frames in descending order so frame 0 is used
		// first (pop from the tail).
		fl := make([]uint64, pages)
		for i := range fl {
			fl[i] = pages - 1 - uint64(i)
		}
		p.free[t] = fl
		if td.WriteBudget > 0 {
			p.wear[t] = make([]uint32, pages)
			p.hasWear = true
		}
	}
	return p
}

// PageTable returns the run's page table. The simulator shares it with
// the AVF tracker, the interval tracker, and the migrator so every structure
// indexes the same dense space.
func (p *Placement) PageTable() *core.PageTable { return p.pt }

// FastTier returns the fast (migration-target) tier index.
func (p *Placement) FastTier() int { return p.fast }

// AllocTiers returns the first-touch allocation order.
func (p *Placement) AllocTiers() []int { return p.allocOrder }

// ResidentOf returns the number of pages resident in tier t.
func (p *Placement) ResidentOf(t int) int { return p.resident[t] }

// Preplace installs pages in the fast tier before the measured region begins
// — the paper's warm-start ("we assume a good pre-measurement placement").
// Pages beyond capacity, and pages outside the page table, are rejected
// with an error. pin marks them immovable (annotation-based placement).
func (p *Placement) Preplace(pages []uint64, pin bool) error {
	fast := p.fast
	for _, page := range pages {
		pi, ok := p.pt.Index(page)
		if !ok {
			return fmt.Errorf("sim: preplaced page %#x is outside the run's page table", page)
		}
		i := int(pi)
		if p.flags[i]&pagePlaced != 0 {
			return fmt.Errorf("sim: page %d placed twice", page)
		}
		fl := p.free[fast]
		if len(fl) == 0 {
			return fmt.Errorf("sim: %s capacity %d exceeded during preplacement", p.names[fast], p.capacity[fast])
		}
		frame := fl[len(fl)-1]
		p.free[fast] = fl[:len(fl)-1]
		p.flags[i] = pagePlaced
		if pin {
			p.flags[i] |= pagePinned
		}
		p.tier[i] = uint8(fast)
		p.frame[i] = frame
		p.resident[fast]++
	}
	return nil
}

// ErrDDRExhausted reports that a run's footprint outgrew the allocation
// tiers — a workload/configuration mismatch. It is returned (not panicked)
// so a misconfigured request fails one evaluation, not the process hosting
// it. Topology-aware callers can errors.As into *ErrTierExhausted for the
// overflowing tier; errors.Is against this sentinel keeps working.
var ErrDDRExhausted = errors.New("sim: DDR capacity exhausted")

// ErrTierExhausted reports which tier ran out of frames on a first-touch
// allocation after the whole allocation order was tried. It matches
// ErrDDRExhausted under errors.Is — exhaustion of the allocation chain is
// the same terminal condition the two-tier code signalled with the sentinel.
type ErrTierExhausted struct {
	Tier     int    // tier index of the last allocation candidate
	Name     string // its display name
	Capacity uint64 // its size in pages
}

// Error renders the same shape the two-tier sentinel path produced
// ("sim: DDR capacity exhausted (N pages)" for the default topology).
func (e *ErrTierExhausted) Error() string {
	return fmt.Sprintf("sim: %s capacity exhausted (%d pages)", e.Name, e.Capacity)
}

// Is reports equivalence to the legacy ErrDDRExhausted sentinel.
func (e *ErrTierExhausted) Is(target error) bool { return target == ErrDDRExhausted }

// LookupIndex returns the tier and frame of the page at pi, allocating a
// frame on first touch following the topology's allocation order and
// spilling to the next tier when one is full. If every allocation tier is
// out of frames it returns *ErrTierExhausted (matching ErrDDRExhausted under
// errors.Is) — a configuration error, since experiments size the allocation
// tiers to hold every footprint. The error path is cold; the steady-state
// lookup is allocation-free. pi must be an index of this placement's page
// table.
func (p *Placement) LookupIndex(pi core.PageIndex) (avf.Tier, uint64, error) {
	i := int(pi)
	f := p.flags[i]
	if f&pagePlaced != 0 {
		return avf.Tier(p.tier[i]), p.frame[i], nil
	}
	for _, t := range p.allocOrder {
		fl := p.free[t]
		if n := len(fl); n > 0 {
			frame := fl[n-1]
			p.free[t] = fl[:n-1]
			p.flags[i] = f | pagePlaced
			p.tier[i] = uint8(t)
			p.frame[i] = frame
			p.resident[t]++
			return avf.Tier(t), frame, nil
		}
	}
	last := p.allocOrder[len(p.allocOrder)-1]
	return avf.Tier(last), 0, &ErrTierExhausted{Tier: last, Name: p.names[last], Capacity: p.capacity[last]}
}

// Lookup returns a page's tier and frame by id, allocating a frame on first
// touch (see LookupIndex). A page outside the page table is an error.
func (p *Placement) Lookup(page uint64) (avf.Tier, uint64, error) {
	pi, ok := p.pt.Index(page)
	if !ok {
		return 0, 0, fmt.Errorf("sim: page %#x is outside the run's page table", page)
	}
	return p.LookupIndex(pi)
}

// InHBMIndex reports whether the page at pi resides in the fast tier (HBM
// in the default topology).
func (p *Placement) InHBMIndex(pi core.PageIndex) bool {
	return p.flags[pi]&pagePlaced != 0 && int(p.tier[pi]) == p.fast
}

// InHBM reports whether page currently resides in the fast tier.
func (p *Placement) InHBM(page uint64) bool {
	pi, ok := p.pt.Index(page)
	return ok && p.InHBMIndex(pi)
}

// Pinned reports whether page is pinned (annotation).
func (p *Placement) Pinned(page uint64) bool {
	pi, ok := p.pt.Index(page)
	return ok && p.flags[pi]&pagePinned != 0
}

// TierPages returns tier t's resident pages in ascending page-id order
// (index order).
func (p *Placement) TierPages(t int) []uint64 {
	out := make([]uint64, 0, p.resident[t])
	for i, f := range p.flags {
		if f&pagePlaced != 0 && int(p.tier[i]) == t {
			out = append(out, p.pt.ID(core.PageIndex(i)))
		}
	}
	return out
}

// HBMPages returns the fast tier's resident pages in ascending order.
func (p *Placement) HBMPages() []uint64 { return p.TierPages(p.fast) }

// HBMFreePages returns the number of unallocated fast-tier frames.
func (p *Placement) HBMFreePages() int { return len(p.free[p.fast]) }

// HBMCapacity returns the fast tier's size in pages.
func (p *Placement) HBMCapacity() uint64 { return p.capacity[p.fast] }

// Migrations returns the total pages moved so far.
func (p *Placement) Migrations() uint64 { return p.migrations }

// RecordWrite charges one demand write against tier t's frame for endurance
// accounting. It is a no-op (one boolean check) for topologies without a
// write budget anywhere, keeping the default hot path untouched.
func (p *Placement) RecordWrite(t avf.Tier, frame uint64) {
	if !p.hasWear {
		return
	}
	p.noteWear(int(t), frame)
}

func (p *Placement) noteWear(t int, frame uint64) {
	w := p.wear[t]
	if w == nil || frame >= uint64(len(w)) {
		return
	}
	w[frame]++
}

// TierEndurance summarizes one endurance-limited tier's wear at the end of
// a run. Only tiers with a write budget report.
type TierEndurance struct {
	Tier            int    `json:"tier"`
	Name            string `json:"name"`
	WriteBudget     uint64 `json:"write_budget"`
	TotalWrites     uint64 `json:"total_writes"`
	MaxFrameWrites  uint64 `json:"max_frame_writes"`
	ExhaustedFrames uint64 `json:"exhausted_frames"` // frames at or past the budget
}

// Endurance reports per-tier wear for every write-budgeted tier, in tier
// order. Nil when the topology has no endurance-limited tier.
func (p *Placement) Endurance() []TierEndurance {
	if !p.hasWear {
		return nil
	}
	var out []TierEndurance
	for t, w := range p.wear {
		if w == nil {
			continue
		}
		e := TierEndurance{Tier: t, Name: p.names[t], WriteBudget: p.budget[t]}
		for _, n := range w {
			e.TotalWrites += uint64(n)
			if uint64(n) > e.MaxFrameWrites {
				e.MaxFrameWrites = uint64(n)
			}
			if uint64(n) >= p.budget[t] {
				e.ExhaustedFrames++
			}
		}
		out = append(out, e)
	}
	return out
}

// Migrate applies a migration decision: out-pages leave the fast tier for
// the first allocation tier with room, in-pages enter the fast tier from
// wherever they reside. Pinned pages and requests that don't match the
// page's current tier are skipped. If the fast tier lacks room for every
// in-page after the out-pages leave, the surplus in-pages are dropped (the
// hardware would do the same: swaps are paired). It returns the number of
// pages actually moved.
func (p *Placement) Migrate(in, out []uint64) int {
	moved := 0
	fast := p.fast
	for _, page := range out {
		pi, ok := p.pt.Index(page)
		if !ok {
			continue
		}
		i := int(pi)
		f := p.flags[i]
		if f&pagePlaced == 0 || int(p.tier[i]) != fast || f&pagePinned != 0 {
			continue
		}
		dst := -1
		for _, t := range p.allocOrder {
			if t != fast && len(p.free[t]) > 0 {
				dst = t
				break
			}
		}
		if dst < 0 {
			break
		}
		p.free[fast] = append(p.free[fast], p.frame[i])
		fl := p.free[dst]
		frame := fl[len(fl)-1]
		p.free[dst] = fl[:len(fl)-1]
		p.tier[i] = uint8(dst)
		p.frame[i] = frame
		p.resident[fast]--
		p.resident[dst]++
		if p.hasWear {
			p.noteWear(dst, frame) // the transfer writes the destination frame
		}
		moved++
	}
	for _, page := range in {
		pi, ok := p.pt.Index(page)
		if !ok {
			continue
		}
		i := int(pi)
		f := p.flags[i]
		if f&pagePlaced == 0 || int(p.tier[i]) == fast || f&pagePinned != 0 {
			continue
		}
		fl := p.free[fast]
		if len(fl) == 0 {
			break
		}
		src := int(p.tier[i])
		p.free[src] = append(p.free[src], p.frame[i])
		frame := fl[len(fl)-1]
		p.free[fast] = fl[:len(fl)-1]
		p.tier[i] = uint8(fast)
		p.frame[i] = frame
		p.resident[src]--
		p.resident[fast]++
		if p.hasWear {
			p.noteWear(fast, frame)
		}
		moved++
	}
	p.migrations += uint64(moved)
	return moved
}
