package core

import (
	"math"
	"testing"

	"hmem/internal/avf"
	"hmem/internal/faultsim"
	"hmem/internal/xrand"
)

func TestPageStatsRatios(t *testing.T) {
	p := PageStats{Reads: 100, Writes: 400}
	if p.Accesses() != 500 {
		t.Fatalf("Accesses = %d", p.Accesses())
	}
	if got := p.WrRatio(); got != 4 {
		t.Fatalf("WrRatio = %v", got)
	}
	if got := p.Wr2Ratio(); got != 1600 {
		t.Fatalf("Wr2Ratio = %v", got)
	}
	// The §5.4.2 example: p1 = 4:1, p2 = 400:200. Wr ratio prefers p1,
	// Wr² ratio prefers p2.
	p1 := PageStats{Writes: 4, Reads: 1}
	p2 := PageStats{Writes: 400, Reads: 200}
	if !(p1.WrRatio() > p2.WrRatio()) {
		t.Fatal("Wr ratio should prefer p1")
	}
	if !(p2.Wr2Ratio() > p1.Wr2Ratio()) {
		t.Fatal("Wr2 ratio should prefer p2")
	}
	// Never-read pages.
	wOnly := PageStats{Writes: 7}
	if wOnly.WrRatio() != 7 || wOnly.Wr2Ratio() != 49 {
		t.Fatalf("write-only ratios = %v, %v", wOnly.WrRatio(), wOnly.Wr2Ratio())
	}
}

func TestMeans(t *testing.T) {
	stats := []PageStats{
		{Page: 1, Reads: 10, AVF: 0.2},
		{Page: 2, Reads: 30, AVF: 0.6},
	}
	if got := MeanHotness(stats); got != 20 {
		t.Fatalf("MeanHotness = %v", got)
	}
	if got := MeanAVF(stats); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("MeanAVF = %v", got)
	}
	if MeanHotness(nil) != 0 || MeanAVF(nil) != 0 {
		t.Fatal("empty means must be 0")
	}
}

func TestQuadrantClassification(t *testing.T) {
	stats := []PageStats{
		{Page: 0, Reads: 100, AVF: 0.1}, // hot, low
		{Page: 1, Reads: 100, AVF: 0.9}, // hot, high
		{Page: 2, Reads: 1, AVF: 0.1},   // cold, low
		{Page: 3, Reads: 1, AVF: 0.9},   // cold, high
	}
	q := Quadrants(stats)
	for i, want := range []Quadrant{HotLowRisk, HotHighRisk, ColdLowRisk, ColdHighRisk} {
		if got := q.Classify(stats[i]); got != want {
			t.Errorf("page %d: %v, want %v", i, got, want)
		}
		if q.Count[want] != 1 {
			t.Errorf("quadrant %v count = %d", want, q.Count[want])
		}
		if math.Abs(q.Frac(want)-0.25) > 1e-12 {
			t.Errorf("quadrant %v frac = %v", want, q.Frac(want))
		}
	}
	if q.Total != 4 {
		t.Fatalf("Total = %d", q.Total)
	}
}

func TestQuadrantFracEmpty(t *testing.T) {
	var q QuadrantSummary
	if q.Frac(HotLowRisk) != 0 {
		t.Fatal("empty census must give 0 fractions")
	}
}

func TestQuadrantStrings(t *testing.T) {
	names := map[Quadrant]string{
		HotLowRisk: "hot+low-risk", HotHighRisk: "hot+high-risk",
		ColdLowRisk: "cold+low-risk", ColdHighRisk: "cold+high-risk",
		Quadrant(9): "quadrant(?)",
	}
	for q, want := range names {
		if q.String() != want {
			t.Errorf("%d: %q", q, q.String())
		}
	}
}

func syntheticStats(n int, seed uint64) []PageStats {
	rng := xrand.New(seed)
	out := make([]PageStats, n)
	for i := range out {
		out[i] = PageStats{
			Page:   uint64(i),
			Reads:  rng.Uint64n(1000),
			Writes: rng.Uint64n(400),
			AVF:    rng.Float64(),
		}
	}
	return out
}

func TestPolicyCapacityInvariant(t *testing.T) {
	stats := syntheticStats(500, 1)
	for _, pol := range StaticPolicies() {
		for _, cap := range []int{0, 1, 100, 500, 1000} {
			sel := pol.Select(stats, cap)
			if len(sel) > cap {
				t.Errorf("%s: selected %d > capacity %d", pol.Name(), len(sel), cap)
			}
			if len(sel) > len(stats) {
				t.Errorf("%s: selected more pages than exist", pol.Name())
			}
			seen := map[uint64]bool{}
			for _, p := range sel {
				if seen[p] {
					t.Errorf("%s: duplicate page %d", pol.Name(), p)
				}
				seen[p] = true
			}
		}
	}
}

func TestPolicyDeterminism(t *testing.T) {
	stats := syntheticStats(300, 2)
	for _, pol := range StaticPolicies() {
		a := pol.Select(stats, 128)
		b := pol.Select(stats, 128)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic length", pol.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic order", pol.Name())
			}
		}
	}
}

func TestPerfFocusedPicksHottest(t *testing.T) {
	stats := []PageStats{
		{Page: 10, Reads: 5},
		{Page: 11, Reads: 500},
		{Page: 12, Reads: 50},
	}
	sel := PerfFocused{}.Select(stats, 2)
	if len(sel) != 2 || sel[0] != 11 || sel[1] != 12 {
		t.Fatalf("selection = %v", sel)
	}
}

func TestPerfFractionScalesCapacity(t *testing.T) {
	stats := syntheticStats(100, 3)
	full := PerfFraction{F: 1}.Select(stats, 40)
	half := PerfFraction{F: 0.5}.Select(stats, 40)
	none := PerfFraction{F: 0}.Select(stats, 40)
	if len(full) != 40 || len(half) != 20 || len(none) != 0 {
		t.Fatalf("lengths = %d/%d/%d", len(full), len(half), len(none))
	}
	// Out-of-range F clamps.
	if got := (PerfFraction{F: 2}).Select(stats, 10); len(got) != 10 {
		t.Fatal("F>1 must clamp")
	}
	if got := (PerfFraction{F: -1}).Select(stats, 10); len(got) != 0 {
		t.Fatal("F<0 must clamp")
	}
}

func TestReliabilityFocusedPicksLowestAVF(t *testing.T) {
	stats := []PageStats{
		{Page: 1, AVF: 0.9, Reads: 1000},
		{Page: 2, AVF: 0.05, Reads: 1},
		{Page: 3, AVF: 0.4, Reads: 10},
	}
	sel := ReliabilityFocused{}.Select(stats, 2)
	if len(sel) != 2 || sel[0] != 2 || sel[1] != 3 {
		t.Fatalf("selection = %v, want [2 3] (lowest AVF first)", sel)
	}
}

func TestBalancedStaysInQuadrant(t *testing.T) {
	// 10 hot/low, lots of capacity: balanced must not exceed the quadrant.
	var stats []PageStats
	for i := 0; i < 10; i++ {
		stats = append(stats, PageStats{Page: uint64(i), Reads: 1000, AVF: 0.01})
	}
	for i := 10; i < 100; i++ {
		stats = append(stats, PageStats{Page: uint64(i), Reads: 1, AVF: 0.9})
	}
	sel := Balanced{}.Select(stats, 50)
	if len(sel) != 10 {
		t.Fatalf("balanced selected %d pages, want 10 (quadrant-bound)", len(sel))
	}
	q := Quadrants(stats)
	byPage := map[uint64]PageStats{}
	for _, s := range stats {
		byPage[s.Page] = s
	}
	for _, p := range sel {
		if q.Classify(byPage[p]) != HotLowRisk {
			t.Fatalf("page %d outside hot+low-risk quadrant", p)
		}
	}
}

func TestWrRatioVsWr2RatioSelection(t *testing.T) {
	// Paper's p1/p2 example at scale: Wr picks the high-ratio cold page,
	// Wr² picks the high-traffic page.
	stats := []PageStats{
		{Page: 1, Writes: 4, Reads: 1},
		{Page: 2, Writes: 400, Reads: 200},
	}
	if sel := (WrRatio{}).Select(stats, 1); sel[0] != 1 {
		t.Fatalf("WrRatio picked %d", sel[0])
	}
	if sel := (Wr2Ratio{}).Select(stats, 1); sel[0] != 2 {
		t.Fatalf("Wr2Ratio picked %d", sel[0])
	}
}

func TestDDROnlySelectsNothing(t *testing.T) {
	if sel := (DDROnly{}).Select(syntheticStats(10, 4), 5); len(sel) != 0 {
		t.Fatal("ddr-only must select nothing")
	}
}

func TestPolicyNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range StaticPolicies() {
		if seen[p.Name()] {
			t.Fatalf("duplicate policy name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

func TestFullCounters(t *testing.T) {
	pt := tableOf(t, PageRange{5, 1}, PageRange{9, 1})
	fc := NewFullCounters(8, pt.Len())
	p5, p9 := mustIndex(t, pt, 5), mustIndex(t, pt, 9)
	fc.Observe(p5, false)
	fc.Observe(p5, false)
	fc.Observe(p5, true)
	fc.Observe(p9, true)
	snap := fc.Snapshot(pt)
	if len(snap) != 2 || fc.TouchedPages() != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Page != 5 || snap[0].Reads != 2 || snap[0].Writes != 1 {
		t.Fatalf("page 5 stats = %+v", snap[0])
	}
	if snap[1].Page != 9 || snap[1].Writes != 1 {
		t.Fatalf("page 9 stats = %+v", snap[1])
	}
	fc.Reset()
	if fc.TouchedPages() != 0 {
		t.Fatal("reset failed")
	}
	if got := fc.Snapshot(pt); len(got) != 0 {
		t.Fatalf("post-reset snapshot = %+v", got)
	}
}

// TestFullCountersSnapshotOrder: the snapshot lists every page observed this
// interval once, by ascending page id, with its counts, for small ids and
// for ids with bit 62 set alike; Counts agrees with it and reports
// unobserved pages as untouched.
func TestFullCountersSnapshotOrder(t *testing.T) {
	for _, high := range []uint64{0, 1 << 62} {
		rng := xrand.New(3)
		pages := make([]uint64, 5000)
		ranges := []PageRange{{1, 1}}
		for i := range pages {
			pages[i] = rng.Uint64n(3000) * 7919
			if rng.Bool(0.01) {
				pages[i] |= high
			}
			ranges = append(ranges, PageRange{pages[i], 1})
		}
		pt := tableOf(t, ranges...)
		fc := NewFullCounters(8, pt.Len())
		want := map[uint64]PageStats{}
		for _, page := range pages {
			write := rng.Bool(0.3)
			fc.Observe(mustIndex(t, pt, page), write)
			s := want[page]
			s.Page = page
			if write {
				s.Writes = min(s.Writes+1, 255)
			} else {
				s.Reads = min(s.Reads+1, 255)
			}
			want[page] = s
		}
		unseen := mustIndex(t, pt, 1)
		snap := fc.Snapshot(pt)
		if len(snap) != len(want) {
			t.Fatalf("high=%#x: %d pages in the snapshot, %d observed", high, len(snap), len(want))
		}
		for i, s := range snap {
			if i > 0 && snap[i-1].Page >= s.Page {
				t.Fatalf("high=%#x: page %d follows page %d", high, s.Page, snap[i-1].Page)
			}
			if s != want[s.Page] {
				t.Fatalf("high=%#x: snapshot has %+v, want %+v", high, s, want[s.Page])
			}
			pi := mustIndex(t, pt, s.Page)
			if r, w, touched := fc.Counts(pi); !touched || r != s.Reads || w != s.Writes {
				t.Fatalf("high=%#x: Counts(%d) = %d, %d, %v; snapshot has %+v", high, s.Page, r, w, touched, s)
			}
		}
		if r, w, touched := fc.Counts(unseen); touched || r != 0 || w != 0 {
			t.Fatalf("high=%#x: unobserved page counts %d, %d, %v", high, r, w, touched)
		}
		fc.Reset()
		if _, _, touched := fc.Counts(mustIndex(t, pt, snap[0].Page)); touched {
			t.Fatalf("high=%#x: a page observed before Reset counts as touched after it", high)
		}
	}
}

func TestFullCountersSaturate(t *testing.T) {
	pt := tableOf(t, PageRange{1, 1})
	fc := NewFullCounters(8, pt.Len())
	p1 := mustIndex(t, pt, 1)
	for i := 0; i < 1000; i++ {
		fc.Observe(p1, false)
	}
	if got := fc.Snapshot(pt)[0].Reads; got != 255 {
		t.Fatalf("reads = %d, want 255", got)
	}
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	// §6.3: 17 GB HMA = 4.25M pages -> 8.5 MB total FC storage, 4.25 MB
	// additional over a perf-only design.
	totalPages := 17 * (1 << 30) / 4096
	if got := FCCostBytes(totalPages); got != 8912896 { // 8.5 MiB
		t.Fatalf("FC cost = %d bytes", got)
	}
	if got := FCAdditionalCostBytes(totalPages); got != totalPages {
		t.Fatalf("FC additional cost = %d", got)
	}
	// §6.4.2: 1 GB HBM = 262144 pages -> 512 KB risk counters + 100 KB MEA
	// + 64 KB remap cache = 676 KB.
	hbmPages := (1 << 30) / 4096
	want := 512*1024 + 100*1024 + 64*1024
	if got := CCCostBytes(hbmPages); got != want {
		t.Fatalf("CC cost = %d bytes, want %d (676 KB)", got, want)
	}
	// The headline comparison: CC is ~6x cheaper than FC's additional cost.
	if !(CCCostBytes(hbmPages) < FCAdditionalCostBytes(totalPages)) {
		t.Fatal("CC must cost less than FC")
	}
}

func TestSERModel(t *testing.T) {
	m := SERModel{Fits: faultsim.TierFITs{PerGB: []float64{1, 100}}}
	snap := []avf.PageAVF{
		{Page: 1, AVF: 0.5, ByTier: []float64{0.5, 0}},   // all DDR
		{Page: 2, AVF: 0.5, ByTier: []float64{0, 0.5}},   // all HBM
		{Page: 3, AVF: 0.4, ByTier: []float64{0.2, 0.2}}, // split
	}
	got := m.SER(snap)
	want := (1*0.5 + 100*0.5 + 1*0.2 + 100*0.2) * pageGB
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("SER = %v, want %v", got, want)
	}
	base := m.SERAllDDR(snap)
	wantBase := (0.5 + 0.5 + 0.4) * pageGB
	if math.Abs(base-wantBase) > 1e-15 {
		t.Fatalf("SERAllDDR = %v, want %v", base, wantBase)
	}
	if !(got > base) {
		t.Fatal("placing AVF in HBM must raise SER")
	}
}

func TestFromSnapshot(t *testing.T) {
	snap := []avf.PageAVF{{Page: 7, AVF: 0.25, Reads: 3, Writes: 4}}
	stats := FromSnapshot(snap)
	if len(stats) != 1 || stats[0].Page != 7 || stats[0].AVF != 0.25 ||
		stats[0].Reads != 3 || stats[0].Writes != 4 {
		t.Fatalf("FromSnapshot = %+v", stats)
	}
}
