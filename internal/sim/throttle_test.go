package sim

import (
	"testing"

	"hmem/internal/memsim"
	"hmem/internal/trace"
)

// writeFlood builds a trace of back-to-back writes from one core — the
// pattern that would run away without finite write buffers.
func writeFlood(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 0, Addr: uint64(i) * trace.LineSize, Kind: trace.Write}
	}
	return recs
}

func TestWriteBufferThrottleBoundsBacklog(t *testing.T) {
	run := func(limit int64) Result {
		cfg := testConfig()
		cfg.WriteBufferCycles = limit
		res, err := Run(cfg, []trace.Stream{trace.NewSliceStream(writeFlood(20000))}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unthrottled := run(0)
	throttled := run(512)
	// With throttling the core is paced by the memory system, so the run
	// takes at least as long on the core clock...
	if throttled.Cycles < unthrottled.Cycles {
		t.Fatalf("throttling should not shorten the run: %d vs %d",
			throttled.Cycles, unthrottled.Cycles)
	}
	// ...and both runs issue the same work.
	if throttled.Writes != unthrottled.Writes {
		t.Fatal("throttle changed issued traffic")
	}
}

func TestMemsimHorizonTracksBacklog(t *testing.T) {
	cfg := memsim.DDR3(1 << 20)
	m := memsim.New(cfg)
	first := &memsim.Request{Line: 0, Write: true, Arrival: 0}
	m.Enqueue(first)
	if h := m.HorizonOf(first); h != 0 {
		t.Fatalf("idle horizon = %d", h)
	}
	// Flood one channel; the horizon must move ahead of arrivals.
	for i := 1; i < 200; i++ {
		m.Enqueue(&memsim.Request{Line: uint64(i) * uint64(cfg.Channels), Write: true, Arrival: 0})
	}
	m.Drain()
	if h := m.HorizonOf(first); h <= 0 {
		t.Fatalf("horizon did not advance: %d", h)
	}
}
