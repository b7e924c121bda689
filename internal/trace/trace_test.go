package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"hmem/internal/xrand"
)

func TestGranularityHelpers(t *testing.T) {
	r := Record{Addr: 2*PageSize + 3*LineSize + 7}
	if got := r.Line(); got != 2*LinesPerPage+3 {
		t.Errorf("Line() = %d", got)
	}
	if got := r.Page(); got != 2 {
		t.Errorf("Page() = %d", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Read: "R", Write: "W", InstFetch: "I", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Read.IsWrite() || InstFetch.IsWrite() || !Write.IsWrite() {
		t.Error("IsWrite wrong")
	}
}

func TestSliceStream(t *testing.T) {
	recs := []Record{{Gap: 1}, {Gap: 2}, {Gap: 3}}
	s := NewSliceStream(recs)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 3; i++ {
		r, err := s.Next()
		if err != nil || r.Gap != uint32(i+1) {
			t.Fatalf("record %d: %v %v", i, r, err)
		}
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	s.Reset()
	if r, err := s.Next(); err != nil || r.Gap != 1 {
		t.Fatalf("after Reset: %v %v", r, err)
	}
}

func TestCollectAndLimit(t *testing.T) {
	recs := make([]Record, 10)
	for i := range recs {
		recs[i].Gap = uint32(i)
	}
	got, err := Collect(NewSliceStream(recs), 0)
	if err != nil || len(got) != 10 {
		t.Fatalf("Collect unbounded: %d, %v", len(got), err)
	}
	got, err = Collect(NewSliceStream(recs), 4)
	if err != nil || len(got) != 4 {
		t.Fatalf("Collect bounded: %d, %v", len(got), err)
	}
	lim := Limit(NewSliceStream(recs), 3)
	got, err = Collect(lim, 0)
	if err != nil || len(got) != 3 {
		t.Fatalf("Limit: %d, %v", len(got), err)
	}
	// Limit larger than stream just drains it.
	got, err = Collect(Limit(NewSliceStream(recs), 100), 0)
	if err != nil || len(got) != 10 {
		t.Fatalf("Limit oversize: %d, %v", len(got), err)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := xrand.New(99)
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{
			Gap:  uint32(rng.Uint64n(1 << 20)),
			PC:   rng.Uint64(),
			Addr: rng.Uint64(),
			Kind: Kind(rng.Intn(3)),
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(recs) {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(gap uint32, pc, addr uint64, kindRaw uint8) bool {
		rec := Record{Gap: gap, PC: pc, Addr: addr, Kind: Kind(kindRaw % 3)}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if w.Write(rec) != nil || w.Close() != nil {
			return false
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		got, err := rd.Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE___")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}
}

func TestShortHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("HME")))
	if err == nil {
		t.Fatal("expected error on short header")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Addr: 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the last few bytes off the record.
	data := buf.Bytes()[:buf.Len()-5]
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("expected ErrTruncated, got %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF on empty trace, got %v", err)
	}
}

func BenchmarkWriterWrite(b *testing.B) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	r := Record{Gap: 100, PC: 0x400000, Addr: 0x10000, Kind: Read}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderNext(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 4096; i++ {
		_ = w.Write(Record{Gap: uint32(i), Addr: uint64(i) * 64})
	}
	_ = w.Close()
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, _ := NewReader(bytes.NewReader(data))
		for {
			if _, err := rd.Next(); err != nil {
				break
			}
		}
	}
}
