package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"hmem/internal/experiments"
	"hmem/internal/sim"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

const layerTestRecords = 3000

// simulate runs mix1 under mig (nil for a static placement), optionally
// behind the timed stream and migrator wrappers, and returns the encoded
// result.
func simulate(t *testing.T, mig func() sim.Migrator, wrapped bool, tl *traceLayer, ml *migrationLayer) []byte {
	t.Helper()
	spec, err := workload.SpecByName("mix1")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.Build(layerTestRecords, 7)
	if err != nil {
		t.Fatal(err)
	}
	streams := suite.Streams()
	var m sim.Migrator
	var tm *timedMigrator
	if mig != nil {
		m = mig()
	}
	if wrapped {
		for i, s := range streams {
			streams[i] = tl.wrap(s)
		}
		if m != nil {
			tm = ml.wrap(m)
			m = tm
		}
	}
	res, err := sim.Run(sim.DefaultConfig(64), streams, nil, false, m)
	if err != nil {
		t.Fatal(err)
	}
	if tm != nil {
		tm.flush()
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWrappersLeaveResultsIdentical: the traced run's stream and migrator
// wrappers must not change a single simulated bit, including for Cross
// Counters, whose pause-free migration the wrapper has to forward.
func TestWrappersLeaveResultsIdentical(t *testing.T) {
	o := experiments.DefaultOptions()
	mechs := map[string]func() sim.Migrator{"static": nil}
	for _, m := range families["figures-dynamic"].dynamic {
		mechs[m.name] = func() sim.Migrator { return m.build(o) }
	}
	for name, mig := range mechs {
		t.Run(name, func(t *testing.T) {
			var tl traceLayer
			var ml migrationLayer
			plain := simulate(t, mig, false, nil, nil)
			timed := simulate(t, mig, true, &tl, &ml)
			if !bytes.Equal(plain, timed) {
				t.Fatal("wrapped run's result differs from the plain run's")
			}
			if got, want := tl.records.Load(), int64(workload.Cores*layerTestRecords); got != want {
				t.Errorf("timed streams delivered %d records, want %d", got, want)
			}
			if tl.activeNS.Load() <= 0 {
				t.Error("no stream's active interval was recorded")
			}
			if mig != nil {
				if ml.decideCalls.Load() == 0 {
					t.Error("no Decide call was counted")
				}
				if got, want := ml.onAccessCalls.Load(), tl.records.Load(); got != want {
					t.Errorf("counted %d OnAccess calls for %d records", got, want)
				}
			}
		})
	}
}

func TestTimedMigratorForwardsConcurrentMigration(t *testing.T) {
	o := experiments.DefaultOptions()
	var ml migrationLayer
	for _, m := range families["figures-dynamic"].dynamic {
		inner := m.build(o)
		cm, ok := inner.(interface{ MigratesConcurrently() bool })
		want := ok && cm.MigratesConcurrently()
		if got := ml.wrap(inner).MigratesConcurrently(); got != want {
			t.Errorf("%s: wrapper reports MigratesConcurrently %v, mechanism %v", m.name, got, want)
		}
	}
}

// failingStream yields n records and then a non-EOF error.
type failingStream struct{ n int }

var errStream = errors.New("stream broke")

func (f *failingStream) Next() (trace.Record, error) {
	if f.n == 0 {
		return trace.Record{}, errStream
	}
	f.n--
	return trace.Record{Addr: uint64(f.n)}, nil
}

// TestTimedStreamDeliversRecordsThenError: records read ahead of a source
// error are delivered before the error, which then repeats.
func TestTimedStreamDeliversRecordsThenError(t *testing.T) {
	var tl traceLayer
	s := tl.wrap(&failingStream{n: prefetchRecords + 5})
	recs, err := trace.Collect(s, 0)
	if !errors.Is(err, errStream) || len(recs) != prefetchRecords+5 {
		t.Fatalf("got %d records and %v, want %d and %v", len(recs), err, prefetchRecords+5, errStream)
	}
	if _, err := s.Next(); !errors.Is(err, errStream) {
		t.Fatalf("after the error Next returned %v", err)
	}
	if tl.activeNS.Load() != 0 {
		t.Error("a failed stream's interval was counted as a finished one")
	}
	eof := tl.wrap(trace.NewSliceStream(nil))
	if _, err := eof.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream returned %v", err)
	}
}
