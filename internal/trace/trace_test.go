package trace

import (
	"errors"
	"io"
	"testing"
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
	// A bound larger than the stream just drains it.
	got, err = Collect(NewSliceStream(recs), 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("Collect oversize bound: %d, %v", len(got), err)
	}
}
