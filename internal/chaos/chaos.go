// Package chaos is a deterministic fault injector for hardening tests.
//
// A single JSON-serializable Plan describes every indexed fault to inject —
// at which trace record, task call, HTTP request, or write the fault fires
// and what shape it takes. An Injector built from the plan hands out
// decorators for the seams the rest of the repository already exposes:
//
//   - Stream wraps a trace.Stream and truncates, corrupts, or errors it at
//     configured record indices;
//   - Task wraps a func() error (the shape of every worker-pool task) with
//     injected panics, delays, and errors;
//   - RoundTripper wraps an HTTP client path with added latency, synthetic
//     5xx responses, and dropped connections; it is the one HTTP fault
//     seam, and also carries host faults toggled at runtime (Block,
//     SetDelay, Heal) — the partitions and brownouts cluster tests inject
//     mid-run;
//   - Writer wraps an io.Writer with injected write failures, standing in
//     for a filesystem that fills up or yanks the disk mid-append.
//
// Everything is deterministic: the same plan injects the same faults with the
// same corrupted bytes on every run, so a chaos test that passes locally
// passes in CI, and a failure reproduces from the plan alone. Corruption
// bits derive from Plan.Seed and the record index via xrand, never from a
// shared mutable generator, so injection is also independent of goroutine
// scheduling.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hmem/internal/trace"
	"hmem/internal/xrand"
)

// ErrInjected is the sentinel wrapped by every fault this package injects,
// so tests can assert "this failure was mine" with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Fault modes. Not every mode applies to every seam; Plan.Validate checks
// the combinations.
const (
	// ModeError makes the decorated call return an injected error.
	ModeError = "error"
	// ModeTruncate ends a stream early with io.EOF (silent truncation).
	ModeTruncate = "truncate"
	// ModeCorrupt flips deterministic bits in a stream record.
	ModeCorrupt = "corrupt"
	// ModePanic panics inside a task.
	ModePanic = "panic"
	// ModeDelay sleeps before running a task.
	ModeDelay = "delay"
	// ModeLatency is ModeDelay's name on the HTTP seam.
	ModeLatency = "latency"
	// ModeDrop severs an HTTP exchange without a response.
	ModeDrop = "drop"
	// ModeShort writes half the buffer, then fails (torn write).
	ModeShort = "short"
)

// TraceFault injects one fault into a wrapped trace.Stream.
type TraceFault struct {
	// AtRecord is the 0-based record index at which the fault fires.
	AtRecord int `json:"at_record"`
	// Mode is ModeError, ModeTruncate, or ModeCorrupt.
	Mode string `json:"mode"`
}

// TaskFault injects one fault into a wrapped task closure.
type TaskFault struct {
	// AtCall is the 0-based call index (across all wrapped tasks of one
	// Injector) at which the fault fires.
	AtCall int `json:"at_call"`
	// Mode is ModePanic, ModeDelay, or ModeError.
	Mode string `json:"mode"`
	// DelayMS is the injected delay for ModeDelay.
	DelayMS int64 `json:"delay_ms,omitempty"`
}

// HTTPFault injects one fault into a wrapped round tripper.
type HTTPFault struct {
	// AtRequest is the 0-based request index at which the fault fires.
	AtRequest int `json:"at_request"`
	// ThroughRequest, when > 0, widens the fault into a window: it fires on
	// every request with AtRequest <= index <= ThroughRequest. Zero keeps the
	// original exact-index behavior. Windows are what brownout plans use — a
	// bounded stretch of degraded service that ends on its own.
	ThroughRequest int `json:"through_request,omitempty"`
	// Mode is ModeLatency, ModeError, or ModeDrop.
	Mode string `json:"mode"`
	// LatencyMS is the added latency for ModeLatency.
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// Code is the synthetic status for ModeError (default 503).
	Code int `json:"code,omitempty"`
}

// matches reports whether the fault fires at request index idx.
func (f HTTPFault) matches(idx int) bool {
	if f.ThroughRequest > 0 {
		return idx >= f.AtRequest && idx <= f.ThroughRequest
	}
	return idx == f.AtRequest
}

// WriteFault injects one fault into a wrapped io.Writer.
type WriteFault struct {
	// AtWrite is the 0-based Write call index at which the fault fires.
	AtWrite int `json:"at_write"`
	// Mode is ModeError or ModeShort.
	Mode string `json:"mode"`
}

// Plan is a complete, JSON-serializable fault schedule. The zero plan
// injects nothing.
type Plan struct {
	// Seed drives the deterministic corruption bits.
	Seed  uint64       `json:"seed,omitempty"`
	Trace []TraceFault `json:"trace,omitempty"`
	Tasks []TaskFault  `json:"tasks,omitempty"`
	HTTP  []HTTPFault  `json:"http,omitempty"`
	Write []WriteFault `json:"write,omitempty"`
}

// Validate checks every fault names a known mode for its seam and a
// non-negative firing index.
func (p Plan) Validate() error {
	for i, f := range p.Trace {
		if f.AtRecord < 0 {
			return fmt.Errorf("chaos: trace fault %d: negative at_record", i)
		}
		switch f.Mode {
		case ModeError, ModeTruncate, ModeCorrupt:
		default:
			return fmt.Errorf("chaos: trace fault %d: unknown mode %q", i, f.Mode)
		}
	}
	for i, f := range p.Tasks {
		if f.AtCall < 0 {
			return fmt.Errorf("chaos: task fault %d: negative at_call", i)
		}
		switch f.Mode {
		case ModePanic, ModeDelay, ModeError:
		default:
			return fmt.Errorf("chaos: task fault %d: unknown mode %q", i, f.Mode)
		}
	}
	for i, f := range p.HTTP {
		if f.AtRequest < 0 {
			return fmt.Errorf("chaos: http fault %d: negative at_request", i)
		}
		if f.ThroughRequest > 0 && f.ThroughRequest < f.AtRequest {
			return fmt.Errorf("chaos: http fault %d: through_request %d before at_request %d",
				i, f.ThroughRequest, f.AtRequest)
		}
		switch f.Mode {
		case ModeLatency, ModeError, ModeDrop:
		default:
			return fmt.Errorf("chaos: http fault %d: unknown mode %q", i, f.Mode)
		}
		if f.Mode == ModeError && f.Code != 0 && (f.Code < 400 || f.Code > 599) {
			return fmt.Errorf("chaos: http fault %d: code %d outside 4xx/5xx", i, f.Code)
		}
	}
	for i, f := range p.Write {
		if f.AtWrite < 0 {
			return fmt.Errorf("chaos: write fault %d: negative at_write", i)
		}
		switch f.Mode {
		case ModeError, ModeShort:
		default:
			return fmt.Errorf("chaos: write fault %d: unknown mode %q", i, f.Mode)
		}
	}
	return nil
}

// Stats counts faults actually injected, by seam.
type Stats struct {
	Trace uint64
	Tasks uint64
	HTTP  uint64
	Write uint64
}

// Injector hands out fault-injecting decorators driven by one Plan.
//
// Stream and Writer wrappers each carry their own private record/write
// counter (faults fire at indices within that wrapper); task and HTTP
// counters are shared across all wrappers from the same Injector, because a
// worker pool or client sees one global call sequence. All counters are
// atomic and the host faults are locked: wrappers may be used from
// concurrent goroutines.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	hosts map[string]hostFault // runtime host faults, by "host:port"

	taskCalls atomic.Int64
	httpReqs  atomic.Int64

	traceFaults atomic.Uint64
	taskFaults  atomic.Uint64
	httpFaults  atomic.Uint64
	writeFaults atomic.Uint64
}

// New builds an Injector for plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, hosts: make(map[string]hostFault)}, nil
}

// Plan returns the injector's fault schedule.
func (inj *Injector) Plan() Plan { return inj.plan }

// Stats snapshots how many faults fired so far.
func (inj *Injector) Stats() Stats {
	return Stats{
		Trace: inj.traceFaults.Load(),
		Tasks: inj.taskFaults.Load(),
		HTTP:  inj.httpFaults.Load(),
		Write: inj.writeFaults.Load(),
	}
}

// StreamError reports an injected mid-stream fault with the record position
// at which it fired, so the consumer's error message can localize the damage.
type StreamError struct {
	// Record is the 0-based index of the record at which the fault fired.
	Record int
	// Mode is the injected fault's mode.
	Mode string
}

// Error implements error.
func (e *StreamError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault at record %d", e.Mode, e.Record)
}

// Unwrap ties StreamError to ErrInjected for errors.Is.
func (e *StreamError) Unwrap() error { return ErrInjected }

// corruptRecord deterministically flips bits in rec: the flipped bits are a
// pure function of (seed, record index), never of call order.
func corruptRecord(seed uint64, idx int, rec trace.Record) trace.Record {
	rng := xrand.New(xrand.Derive(seed, 0xC0, uint64(idx)))
	rec.Addr ^= rng.Uint64()
	rec.Gap ^= uint32(rng.Uint64())
	if rng.Bool(0.5) {
		rec.Kind = trace.Kind(rng.Uint64n(3))
	}
	return rec
}

// faultStream decorates a trace.Stream with the plan's trace faults.
type faultStream struct {
	inj *Injector
	src trace.Stream
	pos int
	err error // sticky after an injected error
}

// Stream wraps src with the plan's trace faults. Each call returns an
// independent wrapper whose fault indices count from that wrapper's first
// record.
func (inj *Injector) Stream(src trace.Stream) trace.Stream {
	return &faultStream{inj: inj, src: src}
}

// Next implements trace.Stream.
func (s *faultStream) Next() (trace.Record, error) {
	if s.err != nil {
		return trace.Record{}, s.err
	}
	idx := s.pos
	for _, f := range s.inj.plan.Trace {
		if f.AtRecord != idx {
			continue
		}
		switch f.Mode {
		case ModeError:
			s.inj.traceFaults.Add(1)
			s.err = &StreamError{Record: idx, Mode: ModeError}
			return trace.Record{}, s.err
		case ModeTruncate:
			s.inj.traceFaults.Add(1)
			s.err = io.EOF
			return trace.Record{}, s.err
		case ModeCorrupt:
			rec, err := s.src.Next()
			if err != nil {
				return trace.Record{}, err
			}
			s.inj.traceFaults.Add(1)
			s.pos++
			return corruptRecord(s.inj.plan.Seed, idx, rec), nil
		}
	}
	rec, err := s.src.Next()
	if err != nil {
		return trace.Record{}, err
	}
	s.pos++
	return rec, nil
}
