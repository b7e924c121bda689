package main

import (
	"errors"
	"io"
	"sync/atomic"
	"time"

	"hmem/internal/core"
	"hmem/internal/sim"
	"hmem/internal/trace"
)

// span is one timed interval of a traced run, in nanoseconds from the
// traced run's start; Parent names the enclosing span.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// prefetchRecords is how many records the timed stream pulls from its source
// per timed chunk. Timing each record would cost more than generating it;
// 4096 records amortize the two clock reads to well under a nanosecond each.
const prefetchRecords = 4096

// traceLayer accumulates what the timed streams observe: the trace layer's
// busy time and output, plus each stream's active interval (first record to
// end of stream), which is how long the simulation consuming it ran.
type traceLayer struct {
	genNS    atomic.Int64
	records  atomic.Int64
	activeNS atomic.Int64
}

// wrap returns s behind a timed prefetching stream that reports to l.
func (l *traceLayer) wrap(s trace.Stream) trace.Stream {
	return &timedStream{src: s, layer: l}
}

// timedStream delivers its source's records unchanged, pulling them in
// chunks so that the time spent producing them is measured apart from the
// time the simulator spends consuming them.
type timedStream struct {
	src   trace.Stream
	layer *traceLayer
	buf   []trace.Record
	pos   int
	err   error // the source's terminal error, returned once buf drains
	first time.Time
}

// Next implements trace.Stream.
func (s *timedStream) Next() (trace.Record, error) {
	if s.pos == len(s.buf) {
		if s.err == nil {
			s.fill()
		}
		if s.pos == len(s.buf) {
			if errors.Is(s.err, io.EOF) && !s.first.IsZero() {
				s.layer.activeNS.Add(int64(time.Since(s.first)))
				s.first = time.Time{}
			}
			return trace.Record{}, s.err
		}
	}
	r := s.buf[s.pos]
	s.pos++
	return r, nil
}

func (s *timedStream) fill() {
	start := time.Now()
	if s.first.IsZero() {
		s.first = start
	}
	if s.buf == nil {
		s.buf = make([]trace.Record, 0, prefetchRecords)
	}
	s.buf, s.pos = s.buf[:0], 0
	for len(s.buf) < prefetchRecords {
		r, err := s.src.Next()
		if err != nil {
			s.err = err
			break
		}
		s.buf = append(s.buf, r)
	}
	s.layer.genNS.Add(int64(time.Since(start)))
	s.layer.records.Add(int64(len(s.buf)))
}

// migrationLayer accumulates what the timed migrators observe.
type migrationLayer struct {
	decideNS      atomic.Int64
	decideCalls   atomic.Int64
	onAccessCalls atomic.Int64
}

// wrap returns m behind a timed migrator that reports to l.
func (l *migrationLayer) wrap(m sim.Migrator) *timedMigrator {
	return &timedMigrator{m: m, layer: l}
}

// timedMigrator forwards every sim.Migrator call to m, timing Decide and
// counting calls. OnAccess runs once per simulated access, so it is counted
// locally and published when the run ends rather than timed.
type timedMigrator struct {
	m        sim.Migrator
	layer    *migrationLayer
	accesses int64
}

func (t *timedMigrator) Name() string            { return t.m.Name() }
func (t *timedMigrator) Bind(pt *core.PageTable) { t.m.Bind(pt) }
func (t *timedMigrator) IntervalCycles() int64   { return t.m.IntervalCycles() }

func (t *timedMigrator) OnAccess(pi core.PageIndex, write, inHBM bool) {
	t.accesses++
	t.m.OnAccess(pi, write, inHBM)
}

func (t *timedMigrator) Decide(now int64, p *sim.Placement) (in, out []uint64) {
	start := time.Now()
	in, out = t.m.Decide(now, p)
	t.layer.decideNS.Add(int64(time.Since(start)))
	t.layer.decideCalls.Add(1)
	t.layer.onAccessCalls.Add(t.accesses)
	t.accesses = 0
	return in, out
}

// MigratesConcurrently forwards the capability the simulator probes for:
// hardware mechanisms (Cross Counters) migrate without an OS pause, and a
// wrapper that hid it would change the simulated result.
func (t *timedMigrator) MigratesConcurrently() bool {
	cm, ok := t.m.(interface{ MigratesConcurrently() bool })
	return ok && cm.MigratesConcurrently()
}

// flush publishes accesses counted since the last Decide; callers invoke it
// once the run that owns the migrator has finished.
func (t *timedMigrator) flush() {
	t.layer.onAccessCalls.Add(t.accesses)
	t.accesses = 0
}
