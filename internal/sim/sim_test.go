package sim

import (
	"errors"
	"testing"

	"hmem/internal/avf"
	"hmem/internal/core"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

func testConfig() Config {
	return Config{
		Topology:       twoTierTopo(1024, 131072), // 4 MiB HBM, 512 MiB DDR
		IssueWidth:     4,
		MaxOutstanding: 8,
	}
}

// ---- Placement unit tests ---------------------------------------------------

func TestPlacementFirstTouchGoesToDDR(t *testing.T) {
	p := NewTopologyPlacement(twoTierTopo(4, 8))
	tier, frame, err := p.Lookup(100)
	if err != nil {
		t.Fatal(err)
	}
	if tier != avf.TierDDR {
		t.Fatalf("first touch tier = %v", tier)
	}
	if frame >= 8 {
		t.Fatalf("frame %d out of range", frame)
	}
	// Stable on re-lookup.
	t2, f2, err := p.Lookup(100)
	if err != nil {
		t.Fatal(err)
	}
	if t2 != tier || f2 != frame {
		t.Fatal("lookup not stable")
	}
}

func TestPlacementPreplace(t *testing.T) {
	p := NewTopologyPlacement(twoTierTopo(2, 8))
	if err := p.Preplace([]uint64{5, 6}, false); err != nil {
		t.Fatal(err)
	}
	if !p.InHBM(5) || !p.InHBM(6) {
		t.Fatal("preplaced pages not in HBM")
	}
	if p.HBMFreePages() != 0 {
		t.Fatalf("HBM free = %d", p.HBMFreePages())
	}
	if err := p.Preplace([]uint64{7}, false); err == nil {
		t.Fatal("overflow preplacement accepted")
	}
	if err := p.Preplace([]uint64{5}, false); err == nil {
		t.Fatal("double placement accepted")
	}
	if got := p.HBMPages(); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("HBMPages = %v", got)
	}
}

func TestPlacementFramesUnique(t *testing.T) {
	p := NewTopologyPlacement(twoTierTopo(8, 64))
	seen := map[uint64]bool{}
	for page := uint64(0); page < 64; page++ {
		tier, frame, err := p.Lookup(page)
		if err != nil {
			t.Fatal(err)
		}
		if tier != avf.TierDDR {
			t.Fatal("expected DDR")
		}
		if seen[frame] {
			t.Fatalf("frame %d reused", frame)
		}
		seen[frame] = true
	}
}

func TestPlacementDDRExhaustionReturnsError(t *testing.T) {
	p := NewTopologyPlacement(twoTierTopo(1, 1))
	if _, _, err := p.Lookup(0); err != nil {
		t.Fatal(err)
	}
	_, _, err := p.Lookup(1)
	if !errors.Is(err, ErrDDRExhausted) {
		t.Fatalf("err = %v, want ErrDDRExhausted", err)
	}
}

// TestRunSurfacesDDRExhaustion drives a full Run against a DDR tier too
// small for the workload's footprint: the run must fail with a returned
// error (not a panic), so a misconfigured request fails one evaluation
// rather than the process hosting it.
func TestRunSurfacesDDRExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = twoTierTopo(1024, 64) // 64 DDR pages — far below any footprint
	prof, err := workload.Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(prof, 0, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(cfg, []trace.Stream{g}, nil, false, nil)
	if !errors.Is(err, ErrDDRExhausted) {
		t.Fatalf("Run err = %v, want ErrDDRExhausted", err)
	}
}

func TestMigrateSwapsAndRespectsPins(t *testing.T) {
	p := NewTopologyPlacement(twoTierTopo(2, 8))
	if err := p.Preplace([]uint64{10}, true); err != nil { // pinned
		t.Fatal(err)
	}
	if err := p.Preplace([]uint64{11}, false); err != nil {
		t.Fatal(err)
	}
	p.Lookup(20)
	p.Lookup(21)

	// Try to evict both HBM pages and bring both DDR pages in; only the
	// unpinned slot can turn over, and only one free frame appears.
	moved := p.Migrate([]uint64{20, 21}, []uint64{10, 11})
	if p.InHBM(10) != true {
		t.Fatal("pinned page evicted")
	}
	if p.InHBM(11) {
		t.Fatal("unpinned page should have been evicted")
	}
	inCount := 0
	for _, page := range []uint64{20, 21} {
		if p.InHBM(page) {
			inCount++
		}
	}
	if inCount != 1 {
		t.Fatalf("in-migrations = %d, want 1 (one free frame)", inCount)
	}
	if moved != 2 { // one out + one in
		t.Fatalf("moved = %d", moved)
	}
	if p.Migrations() != 2 {
		t.Fatalf("Migrations() = %d", p.Migrations())
	}
}

func TestMigrateIgnoresBogusRequests(t *testing.T) {
	p := NewTopologyPlacement(twoTierTopo(2, 8))
	p.Lookup(1) // in DDR
	// Evicting a DDR page or inserting an HBM-resident page is a no-op.
	if moved := p.Migrate(nil, []uint64{1, 999}); moved != 0 {
		t.Fatalf("bogus out migrated %d", moved)
	}
	if err := p.Preplace([]uint64{5}, false); err != nil {
		t.Fatal(err)
	}
	if moved := p.Migrate([]uint64{5, 888}, nil); moved != 0 {
		t.Fatalf("bogus in migrated %d", moved)
	}
}

// ---- Full-run tests ---------------------------------------------------------

func buildSuite(t *testing.T, name string, records int) *workload.Suite {
	t.Helper()
	spec, err := workload.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.Build(records, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestRunDDROnly(t *testing.T) {
	suite := buildSuite(t, "astar", 3000)
	res, err := Run(testConfig(), suite.Streams(), nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Cycles <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatal("no traffic simulated")
	}
	if res.HBMAccessFraction != 0 {
		t.Fatalf("DDR-only run touched HBM: %v", res.HBMAccessFraction)
	}
	if len(res.Snapshot) == 0 {
		t.Fatal("no AVF snapshot")
	}
	if res.MeanAVF <= 0 || res.MeanAVF >= 1 {
		t.Fatalf("MeanAVF = %v", res.MeanAVF)
	}
	if got := res.Instructions; got < uint64(3000*16) {
		t.Fatalf("instructions = %d", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() Result {
		suite := buildSuite(t, "gcc", 2000)
		res, err := Run(testConfig(), suite.Streams(), nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.IPC != b.IPC || a.Reads != b.Reads {
		t.Fatalf("nondeterministic: %v vs %v cycles", a.Cycles, b.Cycles)
	}
}

func TestHotPlacementImprovesIPC(t *testing.T) {
	// Profile on DDR-only, then place the hottest pages in HBM: IPC must
	// improve (the Figure 5 left-axis effect).
	cfg := testConfig()
	suite := buildSuite(t, "mcf", 4000)
	base, err := Run(cfg, suite.Streams(), nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	hot := core.PerfFocused{}.Select(base.Stats(), int(cfg.FastPages()))

	suite2 := buildSuite(t, "mcf", 4000)
	placed, err := Run(cfg, suite2.Streams(), hot, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if placed.HBMAccessFraction < 0.15 {
		t.Fatalf("hot placement captured only %.0f%% of accesses", placed.HBMAccessFraction*100)
	}
	if placed.IPC <= base.IPC {
		t.Fatalf("hot placement IPC %.4f not better than DDR-only %.4f", placed.IPC, base.IPC)
	}
}

// swapMigrator is a trivial test migrator: every interval it moves the given
// page into HBM.
type swapMigrator struct {
	page     uint64
	interval int64
	decided  int
}

func (s *swapMigrator) Name() string                        { return "test-swap" }
func (s *swapMigrator) Bind(*core.PageTable)                {}
func (s *swapMigrator) OnAccess(core.PageIndex, bool, bool) {}
func (s *swapMigrator) IntervalCycles() int64               { return s.interval }
func (s *swapMigrator) Decide(_ int64, p *Placement) (in, out []uint64) {
	s.decided++
	if !p.InHBM(s.page) {
		return []uint64{s.page}, nil
	}
	return nil, nil
}

// firstTouchedPage returns a page the workload certainly accesses.
func firstTouchedPage(t *testing.T, name string) uint64 {
	t.Helper()
	probe := buildSuite(t, name, 1)
	rec, err := probe.Streams()[0].Next()
	if err != nil {
		t.Fatal(err)
	}
	return rec.Page()
}

func TestMigratorHooksFire(t *testing.T) {
	suite := buildSuite(t, "astar", 3000)
	mig := &swapMigrator{page: firstTouchedPage(t, "astar"), interval: 20000}
	res, err := Run(testConfig(), suite.Streams(), nil, false, mig)
	if err != nil {
		t.Fatal(err)
	}
	if mig.decided == 0 {
		t.Fatal("migrator never consulted")
	}
	if res.PagesMigrated == 0 {
		t.Fatal("no pages migrated")
	}
	if res.MigrationPauses <= 0 {
		t.Fatal("migration pause not charged")
	}
}

func TestMigrationPauseCostsCycles(t *testing.T) {
	suite1 := buildSuite(t, "astar", 3000)
	base, err := Run(testConfig(), suite1.Streams(), nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A pathological migrator that thrashes one page in and out.
	suite2 := buildSuite(t, "astar", 3000)
	thrash := &thrashMigrator{a: firstTouchedPage(t, "astar"), interval: 5000}
	hit, err := Run(testConfig(), suite2.Streams(), nil, false, thrash)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cycles <= base.Cycles {
		t.Fatalf("thrashing migrations should cost cycles: %d vs %d", hit.Cycles, base.Cycles)
	}
}

type thrashMigrator struct {
	a        uint64
	interval int64
}

func (m *thrashMigrator) Name() string                        { return "thrash" }
func (m *thrashMigrator) Bind(*core.PageTable)                {}
func (m *thrashMigrator) OnAccess(core.PageIndex, bool, bool) {}
func (m *thrashMigrator) IntervalCycles() int64               { return m.interval }
func (m *thrashMigrator) Decide(_ int64, p *Placement) (in, out []uint64) {
	if p.InHBM(m.a) {
		return nil, []uint64{m.a}
	}
	return []uint64{m.a}, nil
}

func TestPinnedPagesSurviveMigration(t *testing.T) {
	suite := buildSuite(t, "astar", 2000)
	mig := &evictAllMigrator{interval: 10000}
	res, err := Run(testConfig(), suite.Streams(), []uint64{0, 1}, true, mig)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if mig.sawPinned {
		t.Fatal("pinned pages were evicted")
	}
}

type evictAllMigrator struct {
	interval  int64
	sawPinned bool
}

func (m *evictAllMigrator) Name() string                        { return "evict-all" }
func (m *evictAllMigrator) Bind(*core.PageTable)                {}
func (m *evictAllMigrator) OnAccess(core.PageIndex, bool, bool) {}
func (m *evictAllMigrator) IntervalCycles() int64               { return m.interval }
func (m *evictAllMigrator) Decide(_ int64, p *Placement) (in, out []uint64) {
	hbm := p.HBMPages()
	if !p.InHBM(0) || !p.InHBM(1) {
		m.sawPinned = true
	}
	return nil, hbm
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.IssueWidth = 0
	if _, err := Run(cfg, []trace.Stream{trace.NewSliceStream(nil)}, nil, false, nil); err == nil {
		t.Fatal("bad IssueWidth accepted")
	}
	cfg = testConfig()
	cfg.MaxOutstanding = 0
	if cfg.Validate() == nil {
		t.Fatal("bad MaxOutstanding accepted")
	}
	// A bare Config has no machine: it fails validation instead of
	// panicking in RunCtx.
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("nil Topology accepted")
	}
	if _, err := Run(Config{}, []trace.Stream{trace.NewSliceStream(nil)}, nil, false, nil); err == nil {
		t.Fatal("Run accepted a nil Topology")
	}
	if _, err := Run(testConfig(), nil, nil, false, nil); err == nil {
		t.Fatal("empty stream list accepted")
	}
	bad := &swapMigrator{interval: 0}
	if _, err := Run(testConfig(), []trace.Stream{trace.NewSliceStream(nil)}, nil, false, bad); err == nil {
		t.Fatal("zero-interval migrator accepted")
	}
}

func TestDefaultConfigScales(t *testing.T) {
	// capacities returns the fast (HBM) and tier-0 (DDR) capacities in bytes.
	capacities := func(c Config) (hbm, ddr uint64) {
		if c.Topology.Name != core.DefaultTopologyName {
			t.Fatalf("DefaultConfig topology = %q", c.Topology.Name)
		}
		return c.Topology.Tiers[c.Topology.FastTier].Mem.CapacityBytes, c.Topology.Tiers[0].Mem.CapacityBytes
	}
	if hbm, ddr := capacities(DefaultConfig(1)); hbm != 1<<30 || ddr != 16<<30 {
		t.Fatalf("full scale wrong: %d, %d", hbm, ddr)
	}
	hbm, ddr := capacities(DefaultConfig(64))
	if hbm != 16<<20 || ddr != 256<<20 {
		t.Fatalf("scaled wrong: %d, %d", hbm, ddr)
	}
	if full, _ := capacities(DefaultConfig(0)); full != 1<<30 {
		t.Fatal("scaleDiv<1 must clamp to 1")
	}
	ratio := float64(ddr) / float64(hbm)
	if ratio != 16 {
		t.Fatalf("capacity ratio = %v, want 16", ratio)
	}
}

func BenchmarkRunAstar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, _ := workload.SpecByName("astar")
		suite, _ := spec.Build(2000, 1)
		if _, err := Run(testConfig(), suite.Streams(), nil, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}
