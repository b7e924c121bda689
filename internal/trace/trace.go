// Package trace defines the memory-trace representation shared by the whole
// simulator: the per-request record and per-core streams.
//
// The record layout follows the paper's trace contents (§3.1): "the number
// of intervening non-memory instructions, program counter, memory address,
// and request type ... for every memory request". The program counter is not
// modelled, because no mechanism reads it. Addresses are byte addresses;
// the memory system operates at 64-byte cache-line granularity and placement
// policies at 4 KiB page granularity, so helpers for both roundings live
// here.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Architectural granularities used throughout the simulator.
const (
	// LineSize is the cache-line size in bytes; DRAM requests move one line.
	LineSize = 64
	// PageSize is the OS page size in bytes; placement decisions move pages.
	PageSize = 4096
	// LinesPerPage is the number of cache lines in one page.
	LinesPerPage = PageSize / LineSize
)

// Kind distinguishes request types in a trace.
type Kind uint8

const (
	// Read is a data read (cache-line fill).
	Read Kind = iota
	// Write is a data write (dirty line write-back from the CPU's view).
	Write
	// InstFetch is an instruction fetch; the memory system treats it as a
	// read.
	InstFetch
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case InstFetch:
		return "I"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsWrite reports whether the request modifies memory.
func (k Kind) IsWrite() bool { return k == Write }

// Record is one memory request in a trace.
type Record struct {
	// Gap is the number of non-memory instructions executed by the core
	// since its previous memory request.
	Gap uint32
	// Kind is the request type.
	Kind Kind
	// Addr is the byte address accessed.
	Addr uint64
}

// Line returns the cache-line index of the record's address.
func (r Record) Line() uint64 { return r.Addr / LineSize }

// Page returns the 4 KiB page index of the record's address.
func (r Record) Page() uint64 { return r.Addr / PageSize }

// Stream produces a sequence of records for one core. Implementations
// include on-the-fly workload generators and recording replays. Next
// returns io.EOF after the final record.
type Stream interface {
	Next() (Record, error)
}

// SliceStream adapts a materialized record slice into a Stream.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a Stream over recs. The slice is not copied.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of records in the stream.
func (s *SliceStream) Len() int { return len(s.recs) }

// Collect drains a stream into a slice, stopping at io.EOF or after max
// records (max <= 0 means unbounded). Any error other than io.EOF is
// returned with the records read so far.
func Collect(s Stream, max int) ([]Record, error) {
	var out []Record
	for max <= 0 || len(out) < max {
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
