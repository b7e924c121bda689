package workload

import (
	"io"

	"hmem/internal/trace"
)

// A packed record is one uint64: the gap in the high 32 bits, then the
// core-local page (24 bits), the line within the page (6 bits) and the kind
// (2 bits).
const (
	packPageBits = 24
	// maxPages bounds a profile's footprint so every local page packs.
	maxPages = 1 << packPageBits
)

func pack(gap uint32, page, line int, kind trace.Kind) uint64 {
	return uint64(gap)<<32 | uint64(page)<<8 | uint64(line)<<2 | uint64(kind)
}

// unpack expands a packed record of the core whose pages start at basePage.
func unpack(basePage uint64, p uint64) trace.Record {
	page := p >> 8 & (maxPages - 1)
	return trace.Record{
		Gap:  uint32(p >> 32),
		Addr: (basePage+page)*trace.PageSize + (p>>2&(trace.LinesPerPage-1))*trace.LineSize,
		Kind: trace.Kind(p & 3),
	}
}

// Recording is one core's trace in packed form, 8 bytes per record. It is
// recorded once from a generator and replayed any number of times; a replay
// yields exactly the records the generator would have emitted. A recording
// is immutable, so concurrent replays are safe.
type Recording struct {
	basePage uint64
	packed   []uint64
}

// Record drains the generator's remaining records into a recording.
func (g *Generator) Record() *Recording {
	packed := make([]uint64, 0, g.total-g.emitted)
	for g.emitted < g.total {
		packed = append(packed, g.step())
	}
	return &Recording{basePage: g.basePage, packed: packed}
}

// Bytes returns the memory the recording's packed records hold.
func (r *Recording) Bytes() int64 { return 8 * int64(len(r.packed)) }

// Stream returns a new replay of the recording from its first record.
func (r *Recording) Stream() *Replay { return &Replay{rec: r} }

// Replay is one pass over a Recording. It implements trace.Stream.
type Replay struct {
	rec *Recording
	pos int
}

// Next implements trace.Stream.
func (p *Replay) Next() (trace.Record, error) {
	if p.pos >= len(p.rec.packed) {
		return trace.Record{}, io.EOF
	}
	rec := unpack(p.rec.basePage, p.rec.packed[p.pos])
	p.pos++
	return rec, nil
}
