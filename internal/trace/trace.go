// Package trace defines the memory-trace representation shared by the whole
// simulator: the per-request record, per-core streams, and a compact binary
// on-disk format.
//
// The record layout mirrors the paper's trace contents (§3.1): "the number of
// intervening non-memory instructions, program counter, memory address, and
// request type ... for every memory request". Addresses are byte addresses;
// the memory system operates at 64-byte cache-line granularity and placement
// policies at 4 KiB page granularity, so helpers for both roundings live
// here.
package trace

import (
	"bufio"
	"encoding/binary"
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
	// PC is the program counter of the requesting instruction.
	PC uint64
	// Addr is the byte address accessed.
	Addr uint64
	// Kind is the request type.
	Kind Kind
}

// Line returns the cache-line index of the record's address.
func (r Record) Line() uint64 { return r.Addr / LineSize }

// Page returns the 4 KiB page index of the record's address.
func (r Record) Page() uint64 { return r.Addr / PageSize }

// Stream produces a sequence of records for one core. Implementations
// include on-the-fly workload generators, recording replays, and file
// readers. Next returns io.EOF after the final record.
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

// Limit wraps a stream so that it yields at most n records.
func Limit(s Stream, n int) Stream { return &limitStream{s: s, left: n} }

type limitStream struct {
	s    Stream
	left int
}

func (l *limitStream) Next() (Record, error) {
	if l.left <= 0 {
		return Record{}, io.EOF
	}
	r, err := l.s.Next()
	if err == nil {
		l.left--
	}
	return r, err
}

// ---- Binary encoding -------------------------------------------------------
//
// The on-disk format is a little-endian framed stream:
//
//	magic  [8]byte  "HMEMTRC1"
//	record *        { gap uint32, kind uint8, pad [3]byte, pc uint64, addr uint64 }
//
// Fixed 24-byte records keep the reader allocation-free and seekable.

var magic = [8]byte{'H', 'M', 'E', 'M', 'T', 'R', 'C', '1'}

const recordSize = 24

// ErrBadMagic indicates the input is not an hmem trace file.
var ErrBadMagic = errors.New("trace: bad magic (not an hmem trace file)")

// ErrTruncated indicates a record was cut short at end of input.
var ErrTruncated = errors.New("trace: truncated record")

// Writer serializes records to an io.Writer in the binary trace format.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
	n   int
}

// NewWriter writes the file header and returns a Writer. Close must be
// called to flush buffered output.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	b := w.buf[:]
	binary.LittleEndian.PutUint32(b[0:4], r.Gap)
	b[4] = byte(r.Kind)
	b[5], b[6], b[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(b[8:16], r.PC)
	binary.LittleEndian.PutUint64(b[16:24], r.Addr)
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Close flushes buffered output. It does not close the underlying writer.
func (w *Writer) Close() error { return w.w.Flush() }

// Reader decodes records from an io.Reader in the binary trace format.
// It implements Stream.
type Reader struct {
	r   *bufio.Reader
	buf [recordSize]byte
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Next implements Stream, returning io.EOF cleanly at end of file.
func (r *Reader) Next() (Record, error) {
	n, err := io.ReadFull(r.r, r.buf[:])
	if err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return Record{}, ErrTruncated
		}
		return Record{}, fmt.Errorf("trace: reading record: %w", err)
	}
	b := r.buf[:]
	return Record{
		Gap:  binary.LittleEndian.Uint32(b[0:4]),
		Kind: Kind(b[4]),
		PC:   binary.LittleEndian.Uint64(b[8:16]),
		Addr: binary.LittleEndian.Uint64(b[16:24]),
	}, nil
}
