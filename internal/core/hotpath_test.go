package core

import "testing"

// TestFullCountersResetReusesStorage pins the satellite bugfix: Reset must
// recycle the backing storage (epoch bump + touched-list truncation), so a
// counter unit that is reset every interval performs zero net allocations
// once its slices cover the working set.
func TestFullCountersResetReusesStorage(t *testing.T) {
	const pages = 128
	fc := NewFullCounters(16, pages)
	cycle := func() {
		for pi := PageIndex(0); pi < pages; pi++ {
			fc.Observe(pi, pi%2 == 0)
		}
		fc.Reset()
	}
	cycle() // grow the touched list to steady state
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("observe+reset cycle allocated %.1f times; want 0", allocs)
	}
}

// TestFullCountersObserveZeroAllocs checks the per-access half alone: once
// the interval's touched list holds every page, Observe never allocates.
func TestFullCountersObserveZeroAllocs(t *testing.T) {
	pt := tableOf(t, PageRange{4096, 64})
	fc := NewFullCounters(16, pt.Len())
	for pg := uint64(4096); pg < 4096+64; pg++ {
		fc.Observe(mustIndex(t, pt, pg), false)
	}
	pg := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		pi, _ := pt.Index(4096 + pg)
		fc.Observe(pi, pg%2 == 0)
		pg = (pg + 1) % 64
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per access; want 0", allocs)
	}
}
