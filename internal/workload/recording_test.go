package workload

import (
	"errors"
	"io"
	"sort"
	"testing"
)

// TestRecordingReplayMatchesGenerator: for every evaluated workload, a
// replayed recording yields the generator's records field by field, and
// every record's page lies inside one of the generator's structures.
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
				replay := recorded.Generators[core].Record().Stream()
				for i := 0; ; i++ {
					want, werr := g.Next()
					got, gerr := replay.Next()
					if werr != nil || gerr != nil {
						if !errors.Is(werr, io.EOF) || !errors.Is(gerr, io.EOF) || i != records {
							t.Fatalf("%s seed %d core %d record %d: generator err %v, replay err %v",
								spec.Name, seed, core, i, werr, gerr)
						}
						break
					}
					if got != want {
						t.Fatalf("%s seed %d core %d record %d: replay %+v, generator %+v",
							spec.Name, seed, core, i, got, want)
					}
					if local := want.Page() - g.basePage; local >= uint64(g.prof.FootprintPages) {
						t.Fatalf("%s core %d record %d: page %d outside the core's footprint", spec.Name, core, i, want.Page())
					}
					// Structures are contiguous and ascending: the first one
					// ending past the page must start at or before it.
					structs := g.Structures()
					j := sort.Search(len(structs), func(j int) bool {
						return structs[j].FirstPage+uint64(structs[j].Pages) > want.Page()
					})
					if j == len(structs) || want.Page() < structs[j].FirstPage {
						t.Fatalf("%s core %d record %d: page %d outside every structure", spec.Name, core, i, want.Page())
					}
				}
			}
		}
	}
}

// TestRecordingBytes: a recording holds 8 bytes per record.
func TestRecordingBytes(t *testing.T) {
	p, _ := Lookup("astar")
	rec := mustGen(t, p, 0, 1000, 1).Record()
	if want := int64(8 * 1000); rec.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", rec.Bytes(), want)
	}
}

// TestProfileValidateRejectsUnpackableFootprint: a page number must fit the
// recording's 24-bit page field.
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
