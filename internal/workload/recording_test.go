package workload

import (
	"errors"
	"io"
	"testing"
)

// TestRecordingReplayMatchesGenerator: for every evaluated workload, a
// replayed recording yields the generator's records field by field, and
// every record's page lies inside the structure the generator's layout
// assigns it.
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
					local := want.Page() - g.basePage
					if local >= uint64(len(g.pageStruct)) {
						t.Fatalf("%s core %d record %d: page %d outside the core's footprint", spec.Name, core, i, want.Page())
					}
					if s := g.Structures()[g.pageStruct[local]]; want.Page() < s.FirstPage || want.Page() >= s.FirstPage+uint64(s.Pages) {
						t.Fatalf("%s core %d record %d: page %d outside its structure %s", spec.Name, core, i, want.Page(), s.Name)
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
