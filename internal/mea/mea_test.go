package mea

import (
	"sort"
	"testing"
	"testing/quick"

	"hmem/internal/xrand"
)

// testPages sizes trackers for the page indices the tests draw.
const testPages = 1 << 13

// hotSorted drains the summary into the deterministic ranking consumers use:
// descending residual count, ties by index (tests use identity index→id).
func hotSorted(tr *Tracker) []Entry {
	hot := tr.Hot(nil)
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Count != hot[j].Count {
			return hot[i].Count > hot[j].Count
		}
		return hot[i].Index < hot[j].Index
	})
	return hot
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, testPages)
}

func TestTracksHeavyHitter(t *testing.T) {
	tr := New(4, testPages)
	// One page with 50% frequency among uniform noise must be tracked.
	rng := xrand.New(1)
	for i := 0; i < 10000; i++ {
		if rng.Bool(0.5) {
			tr.Observe(777)
		} else {
			tr.Observe(uint32(rng.Uint64n(1000)))
		}
	}
	hot := hotSorted(tr)
	if len(hot) == 0 || hot[0].Index != 777 {
		t.Fatalf("heavy hitter not at top: %+v", hot)
	}
}

func TestMisraGriesGuarantee(t *testing.T) {
	// Any element with frequency > n/(k+1) must survive in the summary.
	k := 8
	tr := New(k, testPages)
	const n = 9000
	// Element 42 appears n/4 times > n/9.
	rng := xrand.New(2)
	heavy := 0
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			tr.Observe(42)
			heavy++
		} else {
			tr.Observe(uint32(1000 + rng.Uint64n(5000)))
		}
	}
	for _, e := range tr.Hot(nil) {
		if e.Index == 42 {
			return
		}
	}
	t.Fatalf("element with freq %d/%d (> n/(k+1)=%d) lost", heavy, n, n/(k+1))
}

func TestCounterBudgetNeverExceeded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		k := 1 + rng.Intn(16)
		tr := New(k, testPages)
		for i := 0; i < 2000; i++ {
			tr.Observe(uint32(rng.Uint64n(500)))
			if tr.Len() > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHotOrderingDeterministic(t *testing.T) {
	build := func() []Entry {
		tr := New(8, testPages)
		rng := xrand.New(3)
		for i := 0; i < 5000; i++ {
			tr.Observe(uint32(rng.Uint64n(100)))
		}
		return hotSorted(tr)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("nondeterministic summary size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic ordering")
		}
	}
	// Descending counts.
	for i := 1; i < len(a); i++ {
		if a[i].Count > a[i-1].Count {
			t.Fatal("Hot() not sorted by count")
		}
	}
}

func TestReset(t *testing.T) {
	tr := New(4, testPages)
	tr.Observe(1)
	tr.Observe(1)
	tr.Reset()
	if len(tr.Hot(nil)) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestDecrementEvictsSingletons(t *testing.T) {
	tr := New(2, testPages)
	tr.Observe(1) // counts: 1->1
	tr.Observe(2) // counts: 1->1, 2->1
	tr.Observe(3) // full: decrement all -> both evicted, 3 not adopted
	if tr.Len() != 0 {
		t.Fatalf("expected empty summary, got %d entries", tr.Len())
	}
	tr.Observe(4)
	if tr.Len() != 1 {
		t.Fatal("counter not reusable after eviction")
	}
}

func BenchmarkObserve(b *testing.B) {
	tr := New(32, 1<<20)
	rng := xrand.New(1)
	pages := make([]uint32, 1<<12)
	for i := range pages {
		pages[i] = uint32(rng.Uint64n(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(pages[i&(1<<12-1)])
	}
}

// TestObserveAndResetZeroAllocs checks the Misra-Gries unit's hot path:
// Observe and Reset never allocate.
func TestObserveAndResetZeroAllocs(t *testing.T) {
	tr := New(8, testPages)
	for pi := uint32(0); pi < 64; pi++ {
		tr.Observe(pi)
	}
	tr.Reset()
	pi := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(pi)
		pi = (pi + 1) % 64
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per access; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, tr.Reset); allocs != 0 {
		t.Fatalf("Reset allocated %.1f times; want 0", allocs)
	}
}
