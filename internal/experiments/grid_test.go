package experiments

import (
	"math"
	"testing"
)

// TestMeans pins the averages every comparison driver prints: geometric
// means of the ratios that skip non-positive ones, the integer mean of the
// migrated pages, and zeros for a comparison over no workloads.
func TestMeans(t *testing.T) {
	got := means([][]ratios{
		{{ipc: 2, ser: 4, migrated: 3}, {ipc: 8, ser: 0, migrated: 4}},
		{},
	})
	if len(got) != 2 {
		t.Fatalf("means returned %d comparisons, want 2", len(got))
	}
	if math.Abs(got[0].ipc-4) > 1e-12 || math.Abs(got[0].ser-4) > 1e-12 || got[0].migrated != 3 {
		t.Errorf("means = %+v, want {ipc:4 ser:4 migrated:3}", got[0])
	}
	if got[1] != (ratios{}) {
		t.Errorf("empty comparison averages to %+v, want zeros", got[1])
	}
	if got := means(nil); len(got) != 0 {
		t.Errorf("means(nil) = %+v, want none", got)
	}
}
