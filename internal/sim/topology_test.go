package sim

import (
	"context"
	"errors"
	"testing"

	"hmem/internal/avf"
	"hmem/internal/core"
	"hmem/internal/faultsim"
	"hmem/internal/memsim"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// twoTierTopo builds the default topology's DDR/HBM pair at the given
// capacities in pages.
func twoTierTopo(hbmPages, ddrPages uint64) *core.Topology {
	topo := core.DefaultTopology(1)
	topo.Tiers[0].Mem = memsim.DDR3(ddrPages * 4096)
	topo.Tiers[1].Mem = memsim.HBM(hbmPages * 4096)
	return topo
}

// threeTierTopo builds a small NVM/DRAM/HBM topology for tests: DRAM (tier 1)
// takes first touches and spills into the write-budgeted NVM capacity tier
// (tier 0); HBM (tier 2) is the migration target.
func threeTierTopo(nvmPages, dramPages, hbmPages uint64) *core.Topology {
	return &core.Topology{
		Name: "test-3tier",
		Tiers: []core.TierDesc{
			{Name: "NVM", Mem: memsim.NVM(nvmPages * 4096), Org: faultsim.NVMDimm(), FaultSeed: 0x7733, WriteBudget: 4},
			{Name: "DRAM", Mem: memsim.DDR3(dramPages * 4096), Org: faultsim.DDR3ChipKill(), FaultSeed: 0xD0D0},
			{Name: "HBM", Mem: memsim.HBM(hbmPages * 4096), Org: faultsim.HBMSecDed(), FaultSeed: 0x4B1D},
		},
		FastTier:   2,
		AllocOrder: []int{1, 0},
	}
}

// TestPlacementSpillsAcrossTiers verifies the N-tier first-touch semantics:
// allocation follows AllocOrder, spills when a tier runs out of frames, and
// exhaustion of the whole chain reports the typed error that still matches
// the legacy sentinel.
func TestPlacementSpillsAcrossTiers(t *testing.T) {
	topo := threeTierTopo(8, 4, 2)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	p := newTestPlacement(topo, 128)

	for pg := uint64(0); pg < 12; pg++ {
		tier, _, err := p.Lookup(pg)
		if err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
		want := avf.Tier(1) // DRAM first...
		if pg >= 4 {
			want = 0 // ...then spill to NVM
		}
		if tier != want {
			t.Fatalf("page %d landed in tier %d, want %d", pg, tier, want)
		}
	}
	if got := p.ResidentOf(1); got != 4 {
		t.Fatalf("DRAM resident = %d, want 4", got)
	}
	if got := p.ResidentOf(0); got != 8 {
		t.Fatalf("NVM resident = %d, want 8", got)
	}

	// Both allocation tiers are full; the next first touch must fail with
	// the typed error AND keep matching the legacy sentinel.
	_, _, err := p.Lookup(99)
	if err == nil {
		t.Fatal("allocation past capacity succeeded")
	}
	if !errors.Is(err, ErrDDRExhausted) {
		t.Fatalf("exhaustion error %v does not match ErrDDRExhausted", err)
	}
	var te *ErrTierExhausted
	if !errors.As(err, &te) {
		t.Fatalf("exhaustion error %v is not *ErrTierExhausted", err)
	}
	if te.Tier != 0 || te.Name != "NVM" || te.Capacity != 8 {
		t.Fatalf("ErrTierExhausted = %+v, want tier 0 NVM capacity 8", te)
	}
	if te.Error() != "sim: NVM capacity exhausted (8 pages)" {
		t.Fatalf("error text = %q", te.Error())
	}
}

// TestPlacementEndurance checks the per-frame wear counters: demand writes
// and migration transfers charge the destination frame, and the summary
// counts frames at or past the budget.
func TestPlacementEndurance(t *testing.T) {
	topo := threeTierTopo(8, 2, 2)
	p := newTestPlacement(topo, 128)

	// Fill DRAM (pages 0-1), spill pages 2-4 into NVM.
	for pg := uint64(0); pg < 5; pg++ {
		if _, _, err := p.Lookup(pg); err != nil {
			t.Fatal(err)
		}
	}
	// Page 2 is the first NVM page: write it past the budget of 4.
	pi := mustIndex(p, 2)
	tier, frame, err := p.LookupIndex(pi)
	if err != nil || tier != 0 {
		t.Fatalf("page 2 in tier %d err %v, want NVM", tier, err)
	}
	for k := 0; k < 5; k++ {
		p.RecordWrite(tier, frame)
	}
	// One write to another NVM page, below budget.
	pi3 := mustIndex(p, 3)
	t3, f3, _ := p.LookupIndex(pi3)
	p.RecordWrite(t3, f3)

	end := p.Endurance()
	if len(end) != 1 {
		t.Fatalf("endurance tiers = %d, want 1 (NVM only)", len(end))
	}
	e := end[0]
	if e.Tier != 0 || e.Name != "NVM" || e.WriteBudget != 4 {
		t.Fatalf("endurance identity = %+v", e)
	}
	if e.TotalWrites != 6 || e.MaxFrameWrites != 5 || e.ExhaustedFrames != 1 {
		t.Fatalf("endurance counters = %+v, want 6 total, 5 max, 1 exhausted", e)
	}

	// A two-tier placement reports no endurance and RecordWrite is a no-op.
	p2 := newTestPlacement(twoTierTopo(4, 16), 128)
	tier2, frame2, _ := p2.Lookup(0)
	p2.RecordWrite(tier2, frame2)
	if p2.Endurance() != nil {
		t.Fatal("default placement reports endurance")
	}
}

// TestPerAccessPathZeroAllocsThreeTier re-runs the zero-allocation gate over
// a three-tier placement with wear accounting live: spilled allocation,
// N-tier AVF tracking, and the RecordWrite path must all stay allocation-free
// in steady state.
func TestPerAccessPathZeroAllocsThreeTier(t *testing.T) {
	const pages = 256
	topo := threeTierTopo(1024, 64, 32)
	p := newTestPlacement(topo, pages)
	tracker := avf.NewTracker(len(topo.Tiers), pages)
	iv := newIntervalState(pages)
	fast := avf.Tier(p.FastTier())

	var now int64
	touch := func() {
		for pg := uint64(0); pg < pages; pg++ {
			pi := mustIndex(p, pg)
			tier, frame, _ := p.LookupIndex(pi)
			now++
			write := pg%3 == 0
			if write {
				p.RecordWrite(tier, frame)
			}
			tracker.Access(uint32(pi), int(pg%64), now, write, tier)
			iv.observe(pi, write, tier == fast)
		}
	}
	touch()
	iv.sample(now, 0)
	touch()

	pg := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		pi := mustIndex(p, pg)
		tier, frame, _ := p.LookupIndex(pi)
		now++
		write := pg%3 == 0
		if write {
			p.RecordWrite(tier, frame)
		}
		tracker.Access(uint32(pi), int(pg%64), now, write, tier)
		iv.observe(pi, write, tier == fast)
		pg = (pg + 1) % pages
	})
	if allocs != 0 {
		t.Fatalf("three-tier per-access path allocated %.1f times per access; want 0", allocs)
	}
}

// TestRunCtxThreeTier drives the full simulator over the three-tier topology:
// the run must finish, report per-tier stats for all three tiers, and carry
// NVM endurance counters in the result.
func TestRunCtxThreeTier(t *testing.T) {
	cfg := testConfig()
	// DRAM is sized far below astar's footprint so first touches spill
	// into the write-budgeted NVM tier.
	cfg.Topology = threeTierTopo(64<<10, 64, 64)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prof, err := workload.Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(prof, 0, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, count := g.Pages()
	res, err := RunCtx(context.Background(), cfg, []core.PageRange{{First: first, Count: count}}, []trace.Stream{g}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if len(res.TierStats) != 3 {
		t.Fatalf("tier stats = %d, want 3", len(res.TierStats))
	}
	if len(res.Endurance) != 1 || res.Endurance[0].Name != "NVM" {
		t.Fatalf("endurance = %+v, want NVM", res.Endurance)
	}
	if res.Endurance[0].TotalWrites == 0 {
		t.Fatal("no NVM writes recorded; working set never spilled")
	}
	// TierStats is in tier order: the spill tier (NVM, tier 0) served the
	// writes its endurance counters recorded.
	if got := res.TierStats[0].Writes; got != res.Endurance[0].TotalWrites {
		t.Fatalf("NVM tier stats show %d writes, endurance %d", got, res.Endurance[0].TotalWrites)
	}
}
