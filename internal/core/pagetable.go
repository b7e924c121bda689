package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// PageTable numbers the pages of a run densely, in page-id order, so the
// per-access bookkeeping (activity counters, placement, AVF tracking, MEA,
// interval hotness) can live in flat slices instead of Go maps. It is built
// once, before the first access, from the page ranges the run may touch: a
// page's index is its offset into the sorted union of those ranges. Index
// order is page-id order, so a walk over the indices visits pages in
// ascending id, and ID inverts Index.
//
// A workload declares one range per core (its address space), so a run's
// table holds a handful of ranges and Index is a short binary search: no
// hashing, no growth, no allocation.

// PageIndex is a page's dense index in a PageTable. Indices from different
// tables are not comparable.
type PageIndex uint32

// PageRange is the pages First, First+1, ..., First+Count-1.
type PageRange struct {
	First, Count uint64
}

// PageTable maps the pages of a fixed set of ranges to dense indices. The
// zero value is an empty table. It is immutable, so concurrent reads are
// safe.
type PageTable struct {
	first []uint64 // first page of each disjoint range, ascending
	start []uint32 // index of each range's first page, plus the total
}

// NewPageTable returns the table of the union of ranges. Ranges may come in
// any order and may overlap, touch or repeat; empty ones are ignored. It
// fails when the union has more pages than a PageIndex can number.
func NewPageTable(ranges []PageRange) (*PageTable, error) {
	rs := slices.Clone(ranges)
	slices.SortFunc(rs, func(a, b PageRange) int { return cmp.Compare(a.First, b.First) })
	t := &PageTable{start: []uint32{0}}
	var end, total uint64 // end of the last range (exclusive), pages so far
	for _, r := range rs {
		if r.Count == 0 {
			continue
		}
		last := r.First + min(r.Count, math.MaxUint64-r.First) // exclusive, saturated
		if len(t.first) > 0 && r.First <= end {
			if last > end {
				total += last - end
				end = last
			}
		} else {
			t.first = append(t.first, r.First)
			t.start = append(t.start, 0)
			total += last - r.First
			end = last
		}
		if total > math.MaxUint32 {
			return nil, fmt.Errorf("core: page table of more than %d pages", uint64(math.MaxUint32))
		}
		t.start[len(t.first)] = uint32(total)
	}
	return t, nil
}

// Index returns page's dense index, and false when no range holds page.
func (t *PageTable) Index(page uint64) (PageIndex, bool) {
	return t.at(t.find(page), page)
}

// IndexNear is Index for a caller whose lookups stay near each other: *r,
// the range of its last lookup (any value at first), is tried before the
// search and then set to the range searched. A simulated core's records
// stay in its own address space, so its lookups rarely search.
func (t *PageTable) IndexNear(r *int, page uint64) (PageIndex, bool) {
	if ix, ok := t.at(*r, page); ok {
		return ix, true
	}
	*r = t.find(page)
	return t.at(*r, page)
}

// find returns the last range starting at or before page, -1 if none.
func (t *PageTable) find(page uint64) int {
	lo, hi := 0, len(t.first)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.first[m] <= page {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// at returns page's index in range r, and false when r holds no such page.
func (t *PageTable) at(r int, page uint64) (PageIndex, bool) {
	if r < 0 || r >= len(t.first) {
		return 0, false
	}
	off := page - t.first[r]
	if off >= uint64(t.start[r+1]-t.start[r]) {
		return 0, false
	}
	return PageIndex(t.start[r] + uint32(off)), true
}

// ID returns the page at index ix. It panics on an index at or past Len.
func (t *PageTable) ID(ix PageIndex) uint64 {
	if int(ix) >= t.Len() {
		panic("core: page index out of range")
	}
	// Find the last range starting at or before ix.
	r, _ := slices.BinarySearch(t.start[1:], uint32(ix)+1)
	return t.first[r] + uint64(uint32(ix)-t.start[r])
}

// Len returns the number of pages in the table.
func (t *PageTable) Len() int {
	if len(t.start) == 0 {
		return 0
	}
	return int(t.start[len(t.start)-1])
}
