package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hmem/internal/chaos"
	"hmem/internal/core"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// TestRunReportsInjectedStreamFaultAndStaysClean drives Run through a
// chaos-wrapped trace: the injected mid-stream error must surface with the
// record position and wrap chaos.ErrInjected. RunCtx over the core's
// declared pages must reject a corrupted record's address with an error
// naming the core and the page. A fault-free run afterward must match a
// fault-free run from before — one poisoned stream never corrupts later
// simulations.
func TestRunReportsInjectedStreamFaultAndStaysClean(t *testing.T) {
	cfg := testConfig()
	prof, err := workload.Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	mkStream := func() trace.Stream {
		g, err := workload.NewGenerator(prof, 0, 5000, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	reference, err := Run(cfg, []trace.Stream{mkStream()}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	inj, err := chaos.New(chaos.Plan{Trace: []chaos.TraceFault{
		{AtRecord: 1234, Mode: chaos.ModeError},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(cfg, []trace.Stream{inj.Stream(mkStream())}, nil, false, nil)
	if err == nil {
		t.Fatal("Run swallowed the injected stream fault")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Run err = %v, does not wrap chaos.ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "record 1234") {
		t.Fatalf("Run err = %q, missing faulted record position", err)
	}
	if got := inj.Stats().Trace; got != 1 {
		t.Fatalf("injected trace faults = %d, want 1", got)
	}

	const corruptAt = 777
	corrupt := func() trace.Stream {
		inj, err := chaos.New(chaos.Plan{Trace: []chaos.TraceFault{
			{AtRecord: corruptAt, Mode: chaos.ModeCorrupt},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return inj.Stream(mkStream())
	}
	recs, err := trace.Collect(corrupt(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := recs[corruptAt].Page()
	first, count := mkStream().(*workload.Generator).Pages()
	if bad-first < count {
		t.Fatalf("corrupted page %#x stayed inside the core's pages", bad)
	}
	ranges := []core.PageRange{{First: first, Count: count}}
	_, err = RunCtx(context.Background(), cfg, ranges, []trace.Stream{corrupt()}, nil, false, nil)
	if err == nil {
		t.Fatal("RunCtx accepted a record outside the core's pages")
	}
	if want := fmt.Sprintf("core 0: page %#x", bad); !strings.Contains(err.Error(), want) {
		t.Fatalf("RunCtx err = %q, want it to name %q", err, want)
	}

	after, err := Run(cfg, []trace.Stream{mkStream()}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reference, after) {
		t.Fatal("fault-free run after an injected fault diverged from the reference")
	}
}

// TestRunTruncatedStreamEndsEarlyNotBroken: a ModeTruncate fault is a clean
// EOF — the simulation completes with fewer records instead of erroring.
func TestRunTruncatedStreamEndsEarlyNotBroken(t *testing.T) {
	cfg := testConfig()
	prof, err := workload.Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(prof, 0, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(chaos.Plan{Trace: []chaos.TraceFault{
		{AtRecord: 500, Mode: chaos.ModeTruncate},
	}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(cfg, []trace.Stream{g}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := workload.NewGenerator(prof, 0, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Run(cfg, []trace.Stream{inj.Stream(g2)}, nil, false, nil)
	if err != nil {
		t.Fatalf("truncated stream errored: %v", err)
	}
	if short.Instructions >= full.Instructions {
		t.Fatalf("truncated run committed %d instructions, full run %d",
			short.Instructions, full.Instructions)
	}
}
