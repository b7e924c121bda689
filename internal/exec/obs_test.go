package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hmem/internal/obs"
)

// TestMapEmitsSpansAndProgress drives a fan-out with the full observability
// stack installed — tracer into a ring, a progress sink — across many
// workers. Designed to run under -race: span export and progress reporting
// happen concurrently from every worker.
func TestMapEmitsSpansAndProgress(t *testing.T) {
	const n = 64
	ring := obs.NewRing(2 * n)
	tracer := obs.NewTracer("fanout", ring)
	ctx := obs.WithTracer(context.Background(), tracer)

	var mu sync.Mutex
	var reports []obs.Progress
	ctx = obs.WithProgress(ctx, func(p obs.Progress) {
		mu.Lock()
		reports = append(reports, p)
		mu.Unlock()
	})

	out, err := Map(ctx, 8, n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}

	spans := ring.Snapshot("fanout")
	if len(spans) != n {
		t.Fatalf("got %d exec.task spans, want %d", len(spans), n)
	}
	seen := make(map[int64]bool)
	for _, sp := range spans {
		if sp.Name != "exec.task" {
			t.Fatalf("unexpected span %q", sp.Name)
		}
		if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "index" {
			t.Fatalf("span attrs = %v", sp.Attrs)
		}
		seen[sp.Attrs[0].Val.(int64)] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct task indices, want %d", len(seen), n)
	}

	if len(reports) != n {
		t.Fatalf("%d progress reports, want %d", len(reports), n)
	}
	var sawFull bool
	for _, p := range reports {
		if p.Percent < 0 || p.Percent > 1 {
			t.Fatalf("progress percent %v out of range", p.Percent)
		}
		if p.Percent == 1 && p.Records == n {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("no progress report reached 100%")
	}
}

// TestMapFailureSkipsProgress checks that a failing task produces its span
// (dispatch happened) but no completion progress, and that the fan-out's
// error semantics are unchanged by observation.
func TestMapFailureSkipsProgress(t *testing.T) {
	ring := obs.NewRing(16)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer("fail", ring))
	var reports int
	ctx = obs.WithProgress(ctx, func(obs.Progress) { reports++ })

	boom := errors.New("boom")
	_, err := Map(ctx, 1, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if reports > 2 {
		t.Fatalf("%d progress reports from a failed fan-out of 3", reports)
	}
}

// TestMapUntracedIsUninstrumented pins the disabled path: no tracer and
// no sink in ctx means no spans and no reports, with the loop body running
// exactly as before.
func TestMapUntracedIsUninstrumented(t *testing.T) {
	var ran [8]bool
	if _, err := Map(context.Background(), 4, 8, func(i int) (struct{}, error) {
		ran[i] = true
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("task %d never ran", i)
		}
	}
}

// TestFanoutBareContextAllocs pins the cost of a fan-out on a bare context
// at four fixed allocations plus two per task. The worker loop spends a
// handful of fixed ones (cancel context, result and error slices, task
// closure, loop state) and one per worker goroutine; any observability
// allocation leaking onto the untraced path shows up against that bound.
func TestFanoutBareContextAllocs(t *testing.T) {
	ctx := context.Background()
	const n = 8
	mapAllocs := testing.AllocsPerRun(100, func() {
		Map(ctx, 4, n, func(i int) (int, error) { return i, nil })
	})
	if want := float64(4 + 2*n); mapAllocs > want {
		t.Errorf("Map allocs = %v, want <= %v", mapAllocs, want)
	}
}
