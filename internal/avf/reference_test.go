package avf

import (
	"slices"
	"testing"

	"hmem/internal/xrand"
)

// refTracker is the Figure 3 rules written the obvious way: a map from
// (page, line) to the line's last access, and per-page counters. Each
// interval ending in a read is charged to the tier of that read. It shares
// no state layout with Tracker, so agreement checks the block arena, the
// rank-ordered timestamps and the snapshot ordering.
type refTracker struct {
	tiers  int
	last   map[refLine]int64
	reads  map[uint32]uint64
	writes map[uint32]uint64
	ace    map[uint32][]int64
}

type refLine struct {
	page uint32
	line int
}

func newRefTracker(tiers int) *refTracker {
	return &refTracker{
		tiers:  tiers,
		last:   map[refLine]int64{},
		reads:  map[uint32]uint64{},
		writes: map[uint32]uint64{},
		ace:    map[uint32][]int64{},
	}
}

func (r *refTracker) access(pi uint32, line int, at int64, write bool, tier Tier) {
	if r.ace[pi] == nil {
		r.ace[pi] = make([]int64, r.tiers)
	}
	k := refLine{pi, line}
	if last, seen := r.last[k]; seen {
		at = max(at, last)
		if !write {
			r.ace[pi][tier] += at - last
		}
	}
	r.last[k] = at
	if write {
		r.writes[pi]++
	} else {
		r.reads[pi]++
	}
}

func (r *refTracker) snapshot(total int64, id func(uint32) uint64) []PageAVF {
	var out []PageAVF
	for pi, ace := range r.ace {
		p := PageAVF{Page: id(pi), Reads: r.reads[pi], Writes: r.writes[pi], ByTier: make([]float64, r.tiers)}
		for tier, cycles := range ace {
			p.ByTier[tier] = float64(cycles) / (64 * float64(total))
			p.AVF += p.ByTier[tier]
		}
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b PageAVF) int {
		if a.Page < b.Page {
			return -1
		}
		return 1
	})
	return out
}

// access is one Tracker.Access call.
type access struct {
	page  uint32
	line  int
	at    int64
	write bool
	tier  Tier
}

// checkAgainstReference replays accesses to page indices below pages into a
// Tracker and the reference and requires their snapshots to agree exactly.
// id maps an index to its page id, ascending.
func checkAgainstReference(t testing.TB, tiers, pages int, accesses []access, id func(uint32) uint64) {
	t.Helper()
	tr, ref := NewTracker(tiers, pages), newRefTracker(tiers)
	var total int64 = 1
	for _, a := range accesses {
		tr.Access(a.page, a.line, a.at, a.write, a.tier)
		ref.access(a.page, a.line, a.at, a.write, a.tier)
		total = max(total, a.at+1)
	}
	got, want := tr.Snapshot(total, id), ref.snapshot(total, id)
	if tr.PageCount() != len(want) {
		t.Fatalf("PageCount = %d, reference saw %d pages", tr.PageCount(), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d pages, reference %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Page != w.Page || g.Reads != w.Reads || g.Writes != w.Writes || g.AVF != w.AVF || !slices.Equal(g.ByTier, w.ByTier) {
			t.Fatalf("snapshot[%d] = %+v, reference %+v", k, g, w)
		}
	}
}

// randomAccesses draws a seeded stream over three tiers: sparse page
// indices, timestamps that sometimes run backwards (the clamp), pages that
// change tier mid-run, and a few pages that sweep all 64 lines so every
// block size class is filled and outgrown. Every tenth seed draws a long
// stream over thousands of pages, whose blocks fill several arena chunks.
func randomAccesses(seed uint64) (accesses []access, pages int) {
	rng := xrand.New(seed)
	const span = 20000
	npages, n := 1+rng.Intn(300), 500+rng.Intn(3000)
	if seed%10 == 0 {
		npages, n = 2500, 80000
	}
	drawn := make([]uint32, npages)
	for i := range drawn {
		drawn[i] = uint32(rng.Uint64n(span))
	}
	full := drawn[:1+rng.Intn(min(len(drawn), 8))]
	tierOf := make(map[uint32]Tier)
	var now int64
	emit := func(page uint32, line int) {
		if rng.Bool(0.05) {
			tierOf[page] = Tier(rng.Intn(3)) // a migration
		}
		now += int64(rng.Intn(20))
		at := now
		if rng.Bool(0.1) {
			at -= int64(rng.Intn(40)) // a skewed core clock
		}
		accesses = append(accesses, access{page, line, at, rng.Bool(0.4), tierOf[page]})
	}
	for ; n > 0; n-- {
		page := drawn[rng.Intn(len(drawn))]
		// Most pages touch few lines, as traces do.
		emit(page, rng.Intn(1+int(page%64)))
		if rng.Bool(0.02) {
			for _, line := range rng.Perm(64) {
				emit(full[rng.Intn(len(full))], line)
			}
		}
	}
	return accesses, span
}

// sparseID spreads page ids out, keeping them ascending with the index.
func sparseID(i uint32) uint64 { return uint64(i)*7919 + 3 }

func TestTrackerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		accesses, pages := randomAccesses(seed)
		checkAgainstReference(t, 3, pages, accesses, sparseID)
	}
}

// FuzzTrackerMatchesReference decodes the input as 4-byte accesses (page,
// line and flags, time step, tier) and checks the tracker against the
// reference on them.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0x40, 10, 1, 0, 0x00, 5, 2})
	f.Add([]byte{3, 63, 1, 0, 3, 0, 1, 0, 3, 0x80 | 62, 9, 1, 200, 17, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var accesses []access
		var now int64
		for ; len(data) >= 4; data = data[4:] {
			now += int64(data[2])
			at := now
			if data[1]&0x80 != 0 {
				at -= int64(data[2]) * 2
			}
			accesses = append(accesses, access{
				page:  uint32(data[0]) * 37, // sparse indices
				line:  int(data[1] & 63),
				at:    at,
				write: data[1]&0x40 != 0,
				tier:  Tier(data[3] % 3),
			})
		}
		checkAgainstReference(t, 3, 256*37, accesses, sparseID)
	})
}
