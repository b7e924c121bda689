package core

import "testing"

// BenchmarkPageTableIntern measures the warm interning cost: the one
// sparse→dense translation every access pays.
func BenchmarkPageTableIntern(b *testing.B) {
	pt := NewPageTable()
	const pages = 4096
	for pg := uint64(0); pg < pages; pg++ {
		pt.Intern(pg * 4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Intern(uint64(i%pages) * 4096)
	}
}

// BenchmarkFullCountersObserve measures one counter update on the flat
// array path (the FC mechanism's per-access cost).
func BenchmarkFullCountersObserve(b *testing.B) {
	fc := NewFullCounters(8)
	const pages = 4096
	for pg := PageIndex(0); pg < pages; pg++ {
		fc.Observe(pg, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Observe(PageIndex(i%pages), i%3 == 0)
	}
}

// snapshotResetTurn returns one interval turnover over a 4K-page working
// set: observe every page, snapshot, and reset the epoch stamps.
func snapshotResetTurn() func() {
	pt := NewPageTable()
	const pages = 4096
	for pg := uint64(0); pg < pages; pg++ {
		pt.Intern(pg)
	}
	fc := NewFullCounters(8)
	return func() {
		for pg := PageIndex(0); pg < pages; pg++ {
			fc.Observe(pg, pg%3 == 0)
		}
		_ = fc.Snapshot(pt)
		fc.Reset()
	}
}

// BenchmarkFullCountersSnapshotReset measures one interval turnover:
// snapshot of a 4K-page working set plus the epoch-stamp reset.
func BenchmarkFullCountersSnapshotReset(b *testing.B) {
	turn := snapshotResetTurn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		turn()
	}
}

// TestFullCountersSnapshotResetAllocs pins the turnover's allocations at
// today's count, so an allocating regression fails here rather than
// surfacing as a slower figure suite.
func TestFullCountersSnapshotResetAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(50, snapshotResetTurn()); got > 4 {
		t.Fatalf("%v allocs per snapshot+reset, want <= 4", got)
	}
}
