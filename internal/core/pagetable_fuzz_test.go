package core

import (
	"encoding/binary"
	"testing"
)

// tableOf returns the page table of the union of ranges.
func tableOf(t testing.TB, ranges ...PageRange) *PageTable {
	t.Helper()
	pt, err := NewPageTable(ranges)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// mustIndex returns page's index in pt.
func mustIndex(t testing.TB, pt *PageTable, page uint64) PageIndex {
	t.Helper()
	pi, ok := pt.Index(page)
	if !ok {
		t.Fatalf("page %#x is not in the table", page)
	}
	return pi
}

// FuzzPageTable builds a table from arbitrary ranges (16 bytes per range,
// little-endian: the first page, kept below 2^52, then the page count, kept
// below 256) and checks its contract against the union the ranges spell
// out page by page:
//
//   - Len is the size of the union;
//   - every page of the union has an index, and ID inverts Index;
//   - ID strictly ascends over the indices, so index order is page order;
//   - a page next to a range, but outside the union, has no index.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 4096), 3))
	seed := make([]byte, 0, 128)
	for _, r := range []PageRange{
		{10, 5}, {12, 2}, // overlapping
		{15, 1},              // adjacent
		{10, 5},              // repeated
		{0, 0},               // empty
		{1<<52 - 3, 255},     // near the top of the id space
		{1 << 40, 1}, {7, 1}, // out of order
	} {
		seed = binary.LittleEndian.AppendUint64(seed, r.First)
		seed = binary.LittleEndian.AppendUint64(seed, r.Count)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ranges []PageRange
		union := map[uint64]bool{}
		for ; len(data) >= 16; data = data[16:] {
			r := PageRange{
				First: binary.LittleEndian.Uint64(data) & (1<<52 - 1),
				Count: binary.LittleEndian.Uint64(data[8:]) % 256,
			}
			ranges = append(ranges, r)
			for p := r.First; p < r.First+r.Count; p++ {
				union[p] = true
			}
		}
		pt := tableOf(t, ranges...)
		if pt.Len() != len(union) {
			t.Fatalf("Len() = %d, want %d pages in the union", pt.Len(), len(union))
		}
		for p := range union {
			ix, ok := pt.Index(p)
			if !ok {
				t.Fatalf("Index(%#x) reports false for a page of the union", p)
			}
			if back := pt.ID(ix); back != p {
				t.Fatalf("ID(Index(%#x)) = %#x", p, back)
			}
		}
		for ix := 1; ix < pt.Len(); ix++ {
			if a, b := pt.ID(PageIndex(ix-1)), pt.ID(PageIndex(ix)); a >= b {
				t.Fatalf("ID(%d) = %#x does not ascend past ID(%d) = %#x", ix, b, ix-1, a)
			}
		}
		for _, r := range ranges {
			for _, p := range []uint64{r.First - 1, r.First + r.Count} {
				if _, ok := pt.Index(p); ok != union[p] {
					t.Fatalf("Index(%#x) reports %v, union membership %v", p, ok, union[p])
				}
			}
		}
	})
}

// TestPageTableRejectsOversizedUnion: a union of more pages than a
// PageIndex can number is an error, found without touching the pages.
func TestPageTableRejectsOversizedUnion(t *testing.T) {
	if _, err := NewPageTable([]PageRange{{0, 1 << 31}, {1 << 40, 1 << 31}}); err == nil {
		t.Fatal("a table of 2^32 pages was accepted")
	}
	if pt := tableOf(t, PageRange{0, 1 << 31}, PageRange{1 << 40, 1<<31 - 1}); pt.Len() != 1<<32-1 {
		t.Fatalf("Len() = %d, want 2^32-1", pt.Len())
	}
}
