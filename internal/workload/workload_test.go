package workload

import (
	"errors"
	"io"
	"testing"

	"hmem/internal/trace"
)

func mustGen(tb testing.TB, p Profile, basePage uint64, records int, seed uint64) *Generator {
	tb.Helper()
	g, err := NewGenerator(p, basePage, records, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(Names()) != 17 {
		t.Errorf("expected 17 benchmark profiles, got %d", len(Names()))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("notabench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestProfileValidateRejectsBadConfigs(t *testing.T) {
	base, _ := Lookup("astar")
	muts := []func(*Profile){
		func(p *Profile) { p.FootprintPages = 0 },
		func(p *Profile) { p.MPKI = 0 },
		func(p *Profile) { p.ZipfS = -1 },
		func(p *Profile) { p.MeanStructPages = 0 },
		func(p *Profile) { p.Classes = nil },
		func(p *Profile) { p.Classes = append([]Class(nil), base.Classes...); p.Classes[0].Frac += 0.5 },
		func(p *Profile) { p.Classes = append([]Class(nil), base.Classes...); p.Classes[0].WriteProb = 1.5 },
		func(p *Profile) { p.Classes = append([]Class(nil), base.Classes...); p.Classes[0].CoverageLines = 0 },
		func(p *Profile) { p.Classes = append([]Class(nil), base.Classes...); p.Classes[0].CoverageLines = 65 },
		func(p *Profile) {
			p.Classes = append([]Class(nil), base.Classes...)
			p.Classes[0].Window = [2]float64{0.5, 0.5}
		},
		func(p *Profile) { p.Classes = append([]Class(nil), base.Classes...); p.Classes[0].HotBoost = 0 },
	}
	for i, mut := range muts {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := Lookup("astar")
	collect := func() []trace.Record {
		g := mustGen(t, p, 0, 2000, 42)
		recs, err := trace.Collect(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := collect(), collect()
	if len(a) != 2000 {
		t.Fatalf("got %d records", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p, _ := Lookup("astar")
	a, _ := trace.Collect(mustGen(t, p, 0, 100, 1), 0)
	b, _ := trace.Collect(mustGen(t, p, 0, 100, 2), 0)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratorAddressesWithinFootprint(t *testing.T) {
	p, _ := Lookup("gcc")
	const base = uint64(5) << 26
	g := mustGen(t, p, base, 5000, 7)
	for {
		r, err := g.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		page := r.Page()
		if page < base || page >= base+uint64(p.FootprintPages) {
			t.Fatalf("page %d outside [%d, %d)", page, base, base+uint64(p.FootprintPages))
		}
	}
}

func TestGeneratorEOF(t *testing.T) {
	p, _ := Lookup("bzip")
	g := mustGen(t, p, 0, 10, 3)
	for i := 0; i < 10; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := g.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestStructuresPartitionFootprint(t *testing.T) {
	for _, name := range Names() {
		p, _ := Lookup(name)
		g := mustGen(t, p, 100, 1, 9)
		structs := g.Structures()
		if len(structs) == 0 {
			t.Fatalf("%s: no structures", name)
		}
		next := uint64(100)
		total := 0
		for _, s := range structs {
			if s.FirstPage != next {
				t.Fatalf("%s: structure %s starts at %d, want %d", name, s.Name, s.FirstPage, next)
			}
			if s.Pages <= 0 {
				t.Fatalf("%s: empty structure %s", name, s.Name)
			}
			if s.Class < 0 || s.Class >= len(p.Classes) {
				t.Fatalf("%s: bad class %d", name, s.Class)
			}
			next += uint64(s.Pages)
			total += s.Pages
		}
		if total != p.FootprintPages {
			t.Fatalf("%s: structures cover %d pages, want %d", name, total, p.FootprintPages)
		}
	}
}

func TestClassFractionsRespected(t *testing.T) {
	p, _ := Lookup("milc")
	g := mustGen(t, p, 0, 1, 11)
	byClass := make([]int, len(p.Classes))
	for _, s := range g.Structures() {
		byClass[s.Class] += s.Pages
	}
	for ci, c := range p.Classes {
		got := float64(byClass[ci]) / float64(p.FootprintPages)
		if got < c.Frac-0.05 || got > c.Frac+0.05 {
			t.Errorf("class %s: %.3f of footprint, want ~%.3f", c.Name, got, c.Frac)
		}
	}
}

func TestWindowRespectedForReads(t *testing.T) {
	// Out-of-window accesses to init-dead pages are mostly writes; only a
	// small stray-read fraction (strayReadProb) is allowed by design.
	p, _ := Lookup("astar")
	deadClass := -1
	for ci, c := range p.Classes {
		if c.Window[1] < 1 {
			deadClass = ci
		}
	}
	if deadClass == -1 {
		t.Skip("no windowed class in profile")
	}
	g := mustGen(t, p, 0, 60000, 13)
	windowEnd := p.Classes[deadClass].Window[1]
	lateReads, lateTotal := 0, 0
	for i := 0; ; i++ {
		r, err := g.Next()
		if err != nil {
			break
		}
		phase := float64(i) / 60000
		if phase <= windowEnd+0.01 {
			continue
		}
		if int(g.pageClass[r.Page()]) != deadClass {
			continue
		}
		lateTotal++
		if r.Kind == trace.Read {
			lateReads++
		}
	}
	if lateTotal > 100 {
		frac := float64(lateReads) / float64(lateTotal)
		if frac > 2.5*strayReadProb {
			t.Fatalf("late reads = %.2f of out-of-window accesses, want ~%v", frac, strayReadProb)
		}
	}
}

func TestMPKIControlsGaps(t *testing.T) {
	high, _ := Lookup("mcf")
	low, _ := Lookup("bzip")
	meanGap := func(p Profile) float64 {
		g := mustGen(t, p, 0, 20000, 5)
		sum := 0.0
		for {
			r, err := g.Next()
			if err != nil {
				break
			}
			sum += float64(r.Gap)
		}
		return sum / 20000
	}
	hg, lg := meanGap(high), meanGap(low)
	// Mean gap must track 1000/MPKI within sampling tolerance.
	for _, c := range []struct {
		prof Profile
		got  float64
	}{{high, hg}, {low, lg}} {
		want := 1000 / c.prof.MPKI
		if c.got < 0.7*want || c.got > 1.3*want {
			t.Errorf("%s: mean gap %.1f, want ~%.1f (MPKI %g)", c.prof.Name, c.got, want, c.prof.MPKI)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range AllSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := Spec{Name: "short", Members: []Member{{"astar", 8}}}
	if bad.Validate() == nil {
		t.Error("8-core spec accepted")
	}
	bad = Spec{Name: "unknown", Members: []Member{{"nope", 16}}}
	if bad.Validate() == nil {
		t.Error("unknown benchmark accepted")
	}
	bad = Spec{Name: "neg", Members: []Member{{"astar", -1}, {"astar", 17}}}
	if bad.Validate() == nil {
		t.Error("negative copies accepted")
	}
}

func TestAllSpecsCount(t *testing.T) {
	specs := AllSpecs()
	if len(specs) != 14 {
		t.Fatalf("got %d specs, want 14 (9 homogeneous + 5 mixes)", len(specs))
	}
	if len(MixSpecs()) != 5 {
		t.Fatal("want 5 mixes (Table 2)")
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("mix3"); err != nil {
		t.Fatal(err)
	}
	// A non-listed benchmark resolves as homogeneous.
	s, err := SpecByName("gcc")
	if err != nil || len(s.Members) != 1 || s.Members[0].Copies != Cores {
		t.Fatalf("SpecByName(gcc) = %+v, %v", s, err)
	}
	if _, err := SpecByName("bogus"); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

// TestSpecByNameAllocs pins that resolving an evaluated workload, a mix or
// a benchmark outside the evaluated set allocates nothing.
func TestSpecByNameAllocs(t *testing.T) {
	for _, name := range []string{"astar", "mix1", "gcc"} {
		if a := testing.AllocsPerRun(100, func() { _, _ = SpecByName(name) }); a != 0 {
			t.Errorf("SpecByName(%q) allocates %.1f times per call, want 0", name, a)
		}
	}
}

func TestSuiteBuild(t *testing.T) {
	suite, err := MixSpecs()[0].Build(100, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Generators) != Cores {
		t.Fatalf("got %d generators", len(suite.Generators))
	}
	if len(suite.Streams()) != Cores {
		t.Fatal("Streams length mismatch")
	}
	if suite.FootprintPages() <= 0 {
		t.Fatal("empty footprint")
	}
	// Per-core address spaces must be disjoint.
	for i, g := range suite.Generators {
		base := uint64(i) * coreStride
		first := g.Structures()[0].FirstPage
		if first != base {
			t.Fatalf("core %d base = %d, want %d", i, first, base)
		}
		if uint64(g.FootprintPages()) >= coreStride {
			t.Fatalf("core %d footprint overflows its stride", i)
		}
	}
	if _, err := MixSpecs()[0].Build(0, 1); err == nil {
		t.Fatal("zero records accepted")
	}
	if _, err := (Spec{Name: "bad"}).Build(10, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	p, _ := Lookup("mcf")
	g := mustGen(b, p, 0, b.N+1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
