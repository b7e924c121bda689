package workload

import (
	"io"

	"hmem/internal/trace"
)

// A recorded record is a header byte, a gap code and, when the record's page
// differs from the previous record's, a page code:
//
//   - header: the line within the page (bits 0–5), the kind (bit 6: read or
//     write) and the new-page flag (bit 7);
//   - gap: one byte below 0x80; else two bytes, 0x80|gap>>8 then gap&0xFF,
//     below gapEscape; else the two-byte code of gapEscape, with the gap in
//     the recording's wide column;
//   - page: the core-local page as two little-endian bytes below
//     pageEscape; else pageEscape, with the page in the wide column.
//
// The generator emits Class.Burst consecutive accesses per page (DESIGN §7),
// so most records carry no page, and most gaps fit one or two bytes.
const (
	lineMask  = trace.LinesPerPage - 1
	kindShift = 6
	newPage   = 1 << 7

	gapEscape  = 0x7FFF
	pageEscape = 0xFFFF
)

// Recording is one core's trace in compact form, about 3.3 bytes per
// record. It is recorded once from a generator and replayed any number of
// times; a replay yields exactly the records the generator would have
// emitted. A recording is immutable, so concurrent replays are safe.
type Recording struct {
	basePage  uint64
	footprint uint64 // pages from basePage on that records may touch
	data      []byte
	wide      []uint32 // escaped gaps and pages, in record order
}

// Record drains the generator's remaining records into a recording.
func (g *Generator) Record() *Recording {
	data := make([]byte, 0, 5*(g.total-g.emitted))
	var wide []uint32
	prev := -1
	for g.emitted < g.total {
		gap, page, line, kind := g.step()
		h := byte(line) | byte(kind)<<kindShift
		if page != prev {
			h |= newPage
		}
		data = append(data, h)
		switch {
		case gap < 0x80:
			data = append(data, byte(gap))
		case gap < gapEscape:
			data = append(data, 0x80|byte(gap>>8), byte(gap))
		default:
			data = append(data, 0x80|gapEscape>>8, gapEscape&0xFF)
			wide = append(wide, gap)
		}
		if page != prev {
			code := pageEscape
			if page < pageEscape {
				code = page
			} else {
				wide = append(wide, uint32(page))
			}
			data = append(data, byte(code), byte(code>>8))
			prev = page
		}
	}
	// Copy out of the worst-case buffer so the recording holds only its
	// bytes.
	r := &Recording{basePage: g.basePage, footprint: uint64(g.prof.FootprintPages), data: make([]byte, len(data))}
	copy(r.data, data)
	if len(wide) > 0 {
		r.wide = append([]uint32(nil), wide...)
	}
	return r
}

// Bytes returns the memory the recording's encoded records hold.
func (r *Recording) Bytes() int64 { return int64(cap(r.data)) + 4*int64(cap(r.wide)) }

// Pages returns the core's address space: every record's page lies in
// [first, first+count).
func (r *Recording) Pages() (first, count uint64) { return r.basePage, r.footprint }

// Stream returns a new replay of the recording from its first record.
func (r *Recording) Stream() *Replay { return &Replay{rec: r} }

// Replay is one pass over a Recording. It implements trace.Stream.
type Replay struct {
	rec  *Recording
	pos  int    // next byte of rec.data
	wi   int    // next entry of rec.wide
	page uint64 // byte address of the current page
}

// Pages returns the recording's address space (see Recording.Pages).
func (p *Replay) Pages() (first, count uint64) { return p.rec.Pages() }

// Next implements trace.Stream.
func (p *Replay) Next() (trace.Record, error) {
	d := p.rec.data
	if p.pos >= len(d) {
		return trace.Record{}, io.EOF
	}
	h := d[p.pos]
	gap := uint32(d[p.pos+1])
	p.pos += 2
	if gap >= 0x80 {
		gap = (gap&0x7F)<<8 | uint32(d[p.pos])
		p.pos++
		if gap == gapEscape {
			gap = p.rec.wide[p.wi]
			p.wi++
		}
	}
	if h&newPage != 0 {
		page := uint32(d[p.pos]) | uint32(d[p.pos+1])<<8
		p.pos += 2
		if page == pageEscape {
			page = p.rec.wide[p.wi]
			p.wi++
		}
		p.page = (p.rec.basePage + uint64(page)) * trace.PageSize
	}
	return trace.Record{
		Gap:  gap,
		Kind: trace.Kind(h >> kindShift & 1),
		Addr: p.page + uint64(h&lineMask)*trace.LineSize,
	}, nil
}
