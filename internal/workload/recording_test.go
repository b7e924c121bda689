package workload

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
)

// TestRecordingReplayMatchesGenerator: for every evaluated workload, a
// replayed recording yields the generator's records field by field, and
// every record's page lies inside one of the generator's structures. Custom
// profiles drive the format's rare paths: a gap escaped to the wide column,
// a page escaped to it, and a one-record trace.
func TestRecordingReplayMatchesGenerator(t *testing.T) {
	const records = 2000
	for _, spec := range AllSpecs() {
		for _, seed := range []uint64{1, 0x9AFE2018} {
			fresh, err := spec.Build(records, seed)
			if err != nil {
				t.Fatal(err)
			}
			recorded, err := spec.Build(records, seed)
			if err != nil {
				t.Fatal(err)
			}
			for core, g := range fresh.Generators {
				name := fmt.Sprintf("%s seed %d core %d", spec.Name, seed, core)
				checkReplay(t, name, g, recorded.Generators[core].Record(), records)
			}
		}
	}

	astar, _ := Lookup("astar")
	longGaps := astar
	longGaps.MPKI = 0.01
	wideFootprint := astar
	wideFootprint.FootprintPages = 100_000
	wideFootprint.ZipfS = 0
	wideFootprint.Classes = []Class{warmMix(1, 0.6)} // live over every page
	for _, tc := range []struct {
		name                string
		prof                Profile
		records             int
		longGaps, widePages bool // the escapes the case must take
	}{
		{"long gaps", longGaps, records, true, false},
		{"wide footprint", wideFootprint, records, false, true},
		{"one record", astar, 1, false, false},
	} {
		rec := mustGen(t, tc.prof, 3<<26, tc.records, 7).Record()
		gaps, pages := checkReplay(t, tc.name, mustGen(t, tc.prof, 3<<26, tc.records, 7), rec, tc.records)
		if (gaps > 0) != tc.longGaps || (pages > 0) != tc.widePages || len(rec.wide) != gaps+pages {
			t.Fatalf("%s: %d escaped gaps, %d escaped page changes, %d wide entries", tc.name, gaps, pages, len(rec.wide))
		}
	}
}

// checkReplay drains g and a replay of rec side by side. It returns how
// many gaps and page changes the format must escape to the wide column.
func checkReplay(t *testing.T, name string, g *Generator, rec *Recording, records int) (longGaps, widePages int) {
	t.Helper()
	replay := rec.Stream()
	structs := g.Structures()
	prev := ^uint64(0)
	for i := 0; ; i++ {
		want, werr := g.Next()
		got, gerr := replay.Next()
		if werr != nil || gerr != nil {
			if !errors.Is(werr, io.EOF) || !errors.Is(gerr, io.EOF) || i != records {
				t.Fatalf("%s record %d: generator err %v, replay err %v", name, i, werr, gerr)
			}
			return longGaps, widePages
		}
		if got != want {
			t.Fatalf("%s record %d: replay %+v, generator %+v", name, i, got, want)
		}
		if local := want.Page() - g.basePage; local >= uint64(g.prof.FootprintPages) {
			t.Fatalf("%s record %d: page %d outside the core's footprint", name, i, want.Page())
		}
		// Structures are contiguous and ascending: the first one ending
		// past the page must start at or before it.
		j := sort.Search(len(structs), func(j int) bool {
			return structs[j].FirstPage+uint64(structs[j].Pages) > want.Page()
		})
		if j == len(structs) || want.Page() < structs[j].FirstPage {
			t.Fatalf("%s record %d: page %d outside every structure", name, i, want.Page())
		}
		if want.Gap >= gapEscape {
			longGaps++
		}
		if local := want.Page() - g.basePage; local != prev && local >= pageEscape {
			widePages++
		}
		prev = want.Page() - g.basePage
	}
}

// TestRecordingBytes: over every evaluated workload at the configuration of
// record (40k records per core, the published seed), a recording averages
// at most 3.5 bytes per record.
func TestRecordingBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("records every workload at 40k records per core")
	}
	const records, seed = 40_000, 0x9AFE2018
	var bytes, n int64
	for _, spec := range AllSpecs() {
		suite, err := spec.Build(records, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range suite.Generators {
			bytes += g.Record().Bytes()
			n += records
		}
	}
	if perRecord := float64(bytes) / float64(n); perRecord > 3.5 {
		t.Fatalf("recordings average %.3f B per record, want at most 3.5", perRecord)
	} else {
		t.Logf("recordings average %.3f B per record (%.1f MB)", perRecord, float64(bytes)/1e6)
	}
}

// TestProfileValidateRejectsUnpackableFootprint: a footprint must stay below
// maxPages, 2^24 pages.
func TestProfileValidateRejectsUnpackableFootprint(t *testing.T) {
	p, _ := Lookup("astar")
	p.FootprintPages = 1 << 24
	if err := p.Validate(); err == nil {
		t.Fatal("FootprintPages == 1<<24 accepted")
	}
	p.FootprintPages = 1<<24 - 1
	if err := p.Validate(); err != nil {
		t.Fatalf("FootprintPages == 1<<24-1 rejected: %v", err)
	}
}

func BenchmarkRecordingReplay(b *testing.B) {
	p, _ := Lookup("mcf")
	rec := mustGen(b, p, 0, 1<<16, 1).Record()
	s := rec.Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			s = rec.Stream()
		}
	}
}
