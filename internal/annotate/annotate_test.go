package annotate

import (
	"sort"
	"testing"

	"hmem/internal/core"
	"hmem/internal/workload"
)

// fixture: two structures; the first is hot+low-risk dense, the second is
// cold.
func fixture() ([]workload.Structure, []core.PageStats) {
	structs := []workload.Structure{
		{Name: "hotbuf", Class: 0, FirstPage: 0, Pages: 4},
		{Name: "coldtable", Class: 1, FirstPage: 4, Pages: 8},
		{Name: "riskyindex", Class: 2, FirstPage: 12, Pages: 4},
	}
	var stats []core.PageStats
	for p := uint64(0); p < 4; p++ { // hot + low AVF
		stats = append(stats, core.PageStats{Page: p, Reads: 100, Writes: 400, AVF: 0.01})
	}
	for p := uint64(4); p < 12; p++ { // cold
		stats = append(stats, core.PageStats{Page: p, Reads: 1, AVF: 0.02})
	}
	for p := uint64(12); p < 16; p++ { // hot + high AVF
		stats = append(stats, core.PageStats{Page: p, Reads: 500, AVF: 0.9})
	}
	return structs, stats
}

func TestSelectPrefersHotLowRiskStructure(t *testing.T) {
	structs, stats := fixture()
	ann, pins := Select(structs, stats, 8)
	if Count(ann) != 1 {
		t.Fatalf("annotations = %d, want 1", len(ann))
	}
	if ann[0].Name != "hotbuf" {
		t.Fatalf("selected %s, want hotbuf", ann[0].Name)
	}
	if len(pins) != 4 {
		t.Fatalf("pins = %v", pins)
	}
	for i, p := range pins {
		if p != uint64(i) {
			t.Fatalf("pins = %v, want pages 0..3", pins)
		}
	}
}

func TestSelectSkipsStructuresWithoutValue(t *testing.T) {
	structs, stats := fixture()
	// Plenty of capacity: still must not annotate cold or risky structures.
	ann, _ := Select(structs, stats, 100)
	for _, a := range ann {
		if a.Name != "hotbuf" {
			t.Fatalf("annotated %s without hot+low-risk content", a.Name)
		}
	}
}

func TestSelectRespectsCapacityByWholeStructures(t *testing.T) {
	structs, stats := fixture()
	// Capacity 3 < hotbuf's 4 pages: nothing fits.
	ann, pins := Select(structs, stats, 3)
	if len(ann) != 0 || len(pins) != 0 {
		t.Fatalf("partial structure annotated: %v", ann)
	}
}

func TestSelectEmptyInputs(t *testing.T) {
	structs, stats := fixture()
	if a, p := Select(nil, stats, 10); a != nil || p != nil {
		t.Fatal("nil structures should produce nothing")
	}
	if a, p := Select(structs, nil, 10); a != nil || p != nil {
		t.Fatal("nil stats should produce nothing")
	}
	if a, p := Select(structs, stats, 0); a != nil || p != nil {
		t.Fatal("zero capacity should produce nothing")
	}
}

func TestSelectDeterministic(t *testing.T) {
	structs, stats := fixture()
	a1, p1 := Select(structs, stats, 8)
	a2, p2 := Select(structs, stats, 8)
	if len(a1) != len(a2) || len(p1) != len(p2) {
		t.Fatal("nondeterministic selection")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("nondeterministic pin order")
		}
	}
}

func TestSelectOnRealWorkload(t *testing.T) {
	// On a generated benchmark, a handful of annotations should cover a
	// meaningful share of HBM (Figure 17: 1-6 for most workloads).
	prof, err := workload.Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(prof, 0, 30000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Profile by draining the generator into per-page counters.
	counts := map[uint64]*core.PageStats{}
	for {
		rec, err := g.Next()
		if err != nil {
			break
		}
		ps := counts[rec.Page()]
		if ps == nil {
			ps = &core.PageStats{Page: rec.Page()}
			counts[rec.Page()] = ps
		}
		if rec.Kind.IsWrite() {
			ps.Writes++
		} else {
			ps.Reads++
		}
	}
	var stats []core.PageStats
	for _, ps := range counts {
		// Cheap AVF proxy for the test: read-dominated pages risky.
		ps.AVF = float64(ps.Reads) / float64(ps.Reads+ps.Writes+1)
		stats = append(stats, *ps)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Page < stats[j].Page })

	capacity := 256
	ann, pins := Select(g.Structures(), stats, capacity)
	if len(ann) == 0 {
		t.Fatal("no structures annotated on a real workload")
	}
	if len(pins) > capacity {
		t.Fatalf("pinned %d pages > capacity %d", len(pins), capacity)
	}
	if len(ann) > 40 {
		t.Fatalf("needed %d annotations; Figure 17 regime is a handful", len(ann))
	}
	// Pins must be unique.
	seen := map[uint64]bool{}
	for _, p := range pins {
		if seen[p] {
			t.Fatalf("page %d pinned twice", p)
		}
		seen[p] = true
	}
}
