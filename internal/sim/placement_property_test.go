package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"hmem/internal/avf"
	"hmem/internal/xrand"
)

// placed reports whether the placement has assigned a frame to page.
func placed(p *Placement, page uint64) bool {
	pi, ok := p.pt.Index(page)
	return ok && p.flags[pi]&pagePlaced != 0
}

// churnProperty drives the page table through random lookup/migrate
// sequences and checks the structural invariants that every policy and
// mechanism relies on:
//
//   - a frame is never assigned to two pages in the same tier;
//   - HBM occupancy never exceeds capacity;
//   - pinned pages never leave HBM;
//   - every page's location stays consistent with InHBM/HBMPages;
//   - frame accounting conserves capacity (free + resident == capacity).
func churnProperty(seed uint64) error {
	rng := xrand.New(seed)
	const hbmCap = 8
	const ddrCap = 64
	const pages = 48
	p := newTestPlacement(twoTierTopo(hbmCap, ddrCap), 128)

	// Preplace a few pages, pin half of them.
	var pinned []uint64
	for i := uint64(0); i < 4; i++ {
		pin := i%2 == 0
		if err := p.Preplace([]uint64{i}, pin); err != nil {
			return err
		}
		if pin {
			pinned = append(pinned, i)
		}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0:
			p.Lookup(rng.Uint64n(pages))
		case 1:
			in := []uint64{rng.Uint64n(pages)}
			out := []uint64{rng.Uint64n(pages)}
			p.Migrate(in, out)
		default:
			p.Migrate(nil, p.HBMPages())
		}

		// Invariants.
		hbm := p.HBMPages()
		if uint64(len(hbm)) > hbmCap {
			return fmt.Errorf("step %d: HBM residency %d exceeds capacity %d", step, len(hbm), hbmCap)
		}
		if got := len(hbm) + p.HBMFreePages(); got != hbmCap {
			return fmt.Errorf("step %d: HBM frames leaked: %d resident + free", step, got)
		}
		seenFrames := map[[2]uint64]bool{}
		for pg := uint64(0); pg < pages; pg++ {
			if !placed(p, pg) {
				continue
			}
			tier, frame, err := p.Lookup(pg)
			if err != nil {
				return fmt.Errorf("step %d: lookup page %d: %w", step, pg, err)
			}
			key := [2]uint64{uint64(tier), frame}
			if seenFrames[key] {
				return fmt.Errorf("step %d: frame %d aliased in tier %v", step, frame, tier)
			}
			seenFrames[key] = true
			if (tier == avf.TierHBM) != p.InHBM(pg) {
				return fmt.Errorf("step %d: page %d tier disagrees with InHBM", step, pg)
			}
		}
		for _, pg := range pinned {
			if !p.InHBM(pg) {
				return fmt.Errorf("step %d: pinned page %d left HBM", step, pg)
			}
		}
	}
	return nil
}

// TestPlacementInvariantsUnderRandomChurn checks churnProperty serially via
// testing/quick, then re-runs it from NumCPU goroutines concurrently (each
// on an independent Placement) so `go test -race` catches any accidental
// shared state between instances of the flat structures.
func TestPlacementInvariantsUnderRandomChurn(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		f := func(seed uint64) bool {
			if err := churnProperty(seed); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		workers := runtime.NumCPU()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seed := uint64(w * 100); seed < uint64(w*100+10); seed++ {
					if err := churnProperty(seed); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestPlacementConservation checks frame accounting: free + resident counts
// always sum to capacity.
func TestPlacementConservation(t *testing.T) {
	rng := xrand.New(5)
	p := newTestPlacement(twoTierTopo(16, 128), 128)
	for i := uint64(0); i < 100; i++ {
		p.Lookup(i)
	}
	for step := 0; step < 300; step++ {
		in := []uint64{rng.Uint64n(100)}
		out := []uint64{rng.Uint64n(100)}
		p.Migrate(in, out)
		if got := len(p.HBMPages()) + p.HBMFreePages(); got != 16 {
			t.Fatalf("step %d: HBM frames leaked: %d", step, got)
		}
	}
}
