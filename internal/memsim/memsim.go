package memsim

import (
	"fmt"
	"math"
	"math/bits"
)

// Request is one cache-line access in flight in a memory tier. Callers
// allocate a Request, Enqueue it, and later obtain its finish time with
// Complete (lazy resolution lets the FR-FCFS scheduler see a window of
// requests before committing to an order).
type Request struct {
	// Line is the tier-local cache-line index (0 .. Config.Lines()-1).
	Line uint64
	// Write marks a write request.
	Write bool
	// Arrival is the CPU cycle the request reached the controller.
	Arrival int64

	finish int64
	seq    uint64
	served bool
	// Geometry is resolved once at Enqueue so the FR-FCFS window and the
	// command sequencer never re-divide the line address.
	ch, bk int32
	row    int64
}

// Reset prepares a served Request for reuse with new parameters, letting
// callers pool Requests instead of allocating one per access. It panics if
// the request is still in flight.
func (r *Request) Reset(line uint64, write bool, arrival int64) {
	if !r.served {
		panic("memsim: Reset of in-flight request")
	}
	*r = Request{Line: line, Write: write, Arrival: arrival}
}

// Finished reports whether the scheduler has served the request.
func (r *Request) Finished() bool { return r.served }

// Finish returns the completion cycle. It panics if the request has not yet
// been served; use Memory.Complete to force resolution.
func (r *Request) Finish() int64 {
	if !r.served {
		panic("memsim: Finish on unserved request")
	}
	return r.finish
}

// Stats aggregates controller activity for one tier.
type Stats struct {
	Reads, Writes          uint64
	RowHits, RowMisses     uint64 // misses include conflicts (row open to another row)
	RowConflicts           uint64
	TotalReadLatency       uint64 // sum over reads of finish-arrival, CPU cycles
	TotalWriteLatency      uint64
	DataBusBusy            int64 // CPU cycles of data-bus occupancy across channels
	BulkTransfers          uint64
	BulkTransferredPages   uint64
	BulkTransferCyclesPaid int64
	Refreshes              uint64
}

// AvgReadLatency returns the mean read latency in CPU cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

// RowHitRate returns the fraction of requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

type bank struct {
	openRow      int64 // -1 when precharged
	casReady     int64 // earliest CAS to the open row (ACT + tRCD)
	preReady     int64 // earliest PRE (tRAS / tRTP / tWR constraints)
	lastWriteEnd int64 // for tWTR write-to-read turnaround
}

type channel struct {
	cfg         *Config
	now         int64 // command scheduling horizon: the channel has made all decisions up to now
	cmdFree     int64
	dataFre     int64
	lastAct     int64 // for tRRD across banks
	nextRefresh int64 // next all-bank refresh deadline (0 = disabled)
	banks       []bank

	// The FR-FCFS window: QueueDepth slots, and per class one mask with a
	// bit per slot. free marks empty slots. Among occupied ones, read marks
	// reads, hit those whose row is their bank's open row, future those
	// whose arrival was after now when last checked (every other occupied
	// slot has arrived, since now never moves backward), and bankSet[b]
	// those addressing bank b. nextArrival is the earliest arrival among
	// the future slots (MaxInt64 when there are none).
	slots       []slot
	full        uint64 // one bit per slot
	free        uint64
	read        uint64
	hit         uint64
	future      uint64
	bankSet     []uint64
	nextArrival int64
}

// slot is one occupied window entry, with the fields selection reads copied
// out of the Request so the scheduler's scans stay in the channel's arrays.
type slot struct {
	r       *Request
	seq     uint64
	arrival int64
	row     int64
}

// ServiceEvent describes one serviced request for timing audits: the DRAM
// command times the scheduler committed to. Tests use it to verify timing
// legality (bus exclusivity, CAS spacing, bank cycle constraints).
type ServiceEvent struct {
	Channel, Bank int
	Row           int64
	Write         bool
	RowHit        bool
	CAS           int64 // CAS issue cycle
	DataStart     int64
	DataEnd       int64
}

// cycTiming is the tier's Timing pre-converted to CPU cycles, so the
// per-request command sequencer never multiplies by TCK.
type cycTiming struct {
	cl, cwl, rcd, rp, ras, wr, bl, ccd, rrd, wtr, rtp, refi, rfc int64
}

// Memory simulates one tier. It is not safe for concurrent use.
type Memory struct {
	cfg      Config
	channels []*channel
	seq      uint64
	stats    Stats
	audit    func(ServiceEvent)

	// Geometry constants hoisted out of Config so the per-access address
	// mapping is pure integer arithmetic on local fields.
	nch, lpr, nbk, lines uint64
	ct                   cycTiming
}

// SetAudit installs a hook receiving every serviced request's committed
// command times (nil disables). Intended for tests and debugging.
func (m *Memory) SetAudit(fn func(ServiceEvent)) { m.audit = fn }

// New builds a Memory from cfg. It panics on an invalid configuration, since
// configurations are build-time constants of an experiment.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg}
	m.nch = uint64(cfg.Channels)
	m.lpr = cfg.LinesPerRow()
	m.nbk = uint64(cfg.RanksPerChannel * cfg.BanksPerRank)
	m.lines = cfg.Lines()
	t := cfg.Timing
	m.ct = cycTiming{
		cl: t.cc(t.TCL), cwl: t.cc(t.TCWL),
		rcd: t.cc(t.TRCD), rp: t.cc(t.TRP), ras: t.cc(t.TRAS), wr: t.cc(t.TWR),
		bl: t.cc(t.TBL), ccd: t.cc(t.TCCD), rrd: t.cc(t.TRRD),
		wtr: t.cc(t.TWTR), rtp: t.cc(t.TRTP),
		refi: t.cc(t.TREFI), rfc: t.cc(t.TRFC),
	}
	m.channels = make([]*channel, cfg.Channels)
	for i := range m.channels {
		// lastAct starts far in the past so the first ACT is not delayed
		// by a phantom tRRD constraint.
		ch := &channel{cfg: &m.cfg, lastAct: -1 << 40}
		if cfg.Timing.TREFI > 0 {
			ch.nextRefresh = cfg.Timing.cc(cfg.Timing.TREFI)
		}
		ch.banks = make([]bank, cfg.RanksPerChannel*cfg.BanksPerRank)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.slots = make([]slot, cfg.QueueDepth)
		ch.full = math.MaxUint64 >> (64 - cfg.QueueDepth)
		ch.free = ch.full
		ch.bankSet = make([]uint64, len(ch.banks))
		ch.nextArrival = math.MaxInt64
		m.channels[i] = ch
	}
	return m
}

// Config returns the tier configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a snapshot of the tier's counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (used at measurement-interval boundaries).
func (m *Memory) ResetStats() { m.stats = Stats{} }

// geometry locates a line: channel by low-order interleave (maximizes
// channel-level parallelism for streaming), then column within row, then
// bank interleave on row index (consecutive rows in different banks).
func (m *Memory) geometry(line uint64) (ch, bk int, row int64, col uint64) {
	ch = int(line % m.nch)
	chLine := line / m.nch
	col = chLine % m.lpr
	rowIdx := chLine / m.lpr
	bk = int(rowIdx % m.nbk)
	row = int64(rowIdx / m.nbk)
	return ch, bk, row, col
}

// Enqueue admits a request to its channel's scheduling window. If the window
// is full the scheduler first retires the best candidate to make room. The
// request's Line must be inside the tier; callers map global pages to
// tier-local frames before enqueueing.
func (m *Memory) Enqueue(r *Request) {
	if r.Line >= m.lines {
		panic(fmt.Sprintf("memsim: %s: line %d beyond capacity (%d lines)", m.cfg.Name, r.Line, m.lines))
	}
	if r.served {
		panic("memsim: Enqueue of already-served request")
	}
	m.seq++
	r.seq = m.seq
	chIdx, bk, row, _ := m.geometry(r.Line)
	r.ch, r.bk, r.row = int32(chIdx), int32(bk), row
	ch := m.channels[chIdx]
	for ch.free == 0 {
		m.serveOne(ch)
	}
	i := bits.TrailingZeros64(ch.free)
	bit := uint64(1) << i
	ch.free &^= bit
	ch.slots[i] = slot{r: r, seq: r.seq, arrival: r.Arrival, row: row}
	ch.bankSet[bk] |= bit
	if !r.Write {
		ch.read |= bit
	}
	if ch.banks[bk].openRow == row {
		ch.hit |= bit
	}
	if r.Arrival > ch.now {
		ch.future |= bit
		ch.nextArrival = min(ch.nextArrival, r.Arrival)
	}
}

// Complete forces resolution of r and returns its finish cycle. Requests on
// the same channel that the FR-FCFS scheduler prefers are served first.
func (m *Memory) Complete(r *Request) int64 {
	if r.served {
		return r.finish
	}
	ch := m.channels[r.ch]
	for !r.served {
		if !m.serveOne(ch) {
			panic("memsim: Complete on request not enqueued")
		}
	}
	return r.finish
}

// Drain serves every pending request on every channel and returns the
// largest finish time observed (0 if nothing was pending).
func (m *Memory) Drain() int64 {
	var last int64
	for _, ch := range m.channels {
		for m.serveOne(ch) {
		}
		if ch.dataFre > last {
			last = ch.dataFre
		}
	}
	return last
}

// serveOne picks and retires one request from ch under FR-FCFS. It returns
// false if the channel has nothing pending.
//
// FR-FCFS with read priority among requests that have arrived by the
// horizon: row-hit reads, then other reads, then row-hit writes, then
// writes — reads sit on the core's critical path while writes are posted.
// Ties break by age (lowest seq). If nothing has arrived, the channel idles
// and the horizon first advances to the earliest arrival.
func (m *Memory) serveOne(ch *channel) bool {
	occupied := ch.full &^ ch.free
	if occupied == 0 {
		return false
	}
	arrived := occupied &^ ch.future
	if arrived == 0 {
		// Every pending request is a future one, so the earliest arrival
		// among them is the earliest of the window.
		ch.now = max(ch.now, ch.nextArrival)
	}
	if ch.nextArrival <= ch.now {
		ch.arrive()
		arrived = occupied &^ ch.future
	}

	class := arrived & ch.read & ch.hit
	if class == 0 {
		class = arrived & ch.read
	}
	if class == 0 {
		class = arrived & ch.hit
	}
	if class == 0 {
		class = arrived
	}
	i := ch.oldest(class)
	r := ch.slots[i].r
	ch.slots[i].r = nil
	bit := uint64(1) << i
	ch.free |= bit
	ch.read &^= bit
	ch.hit &^= bit
	ch.bankSet[r.bk] &^= bit
	m.service(ch, r)
	return true
}

// arrive clears the future bits of slots that have arrived by now and
// recomputes nextArrival over the rest.
func (ch *channel) arrive() {
	next := int64(math.MaxInt64)
	for f := ch.future; f != 0; f &= f - 1 {
		i := bits.TrailingZeros64(f)
		if a := ch.slots[i].arrival; a <= ch.now {
			ch.future &^= 1 << i
		} else {
			next = min(next, a)
		}
	}
	ch.nextArrival = next
}

// oldest returns the slot in the non-empty mask class with the lowest seq.
func (ch *channel) oldest(class uint64) int {
	best := bits.TrailingZeros64(class)
	bestSeq := ch.slots[best].seq
	for f := class & (class - 1); f != 0; f &= f - 1 {
		if i := bits.TrailingZeros64(f); ch.slots[i].seq < bestSeq {
			best, bestSeq = i, ch.slots[i].seq
		}
	}
	return best
}

// rehit re-derives the hit bits of bank bk's slots after it opened row.
func (ch *channel) rehit(bk int32, row int64) {
	set := ch.bankSet[bk]
	ch.hit &^= set
	for f := set; f != 0; f &= f - 1 {
		if i := bits.TrailingZeros64(f); ch.slots[i].row == row {
			ch.hit |= 1 << i
		}
	}
}

// refreshUpTo runs any all-bank refreshes due by cycle `at`: every bank is
// precharged and the channel is blocked for tRFC per refresh.
func (m *Memory) refreshUpTo(ch *channel, at int64) {
	if ch.nextRefresh == 0 {
		return
	}
	for ch.nextRefresh <= at {
		ch.hit = 0
		end := max(ch.nextRefresh, ch.cmdFree) + m.ct.rfc
		for i := range ch.banks {
			ch.banks[i].openRow = -1
			if ch.banks[i].preReady < end {
				ch.banks[i].preReady = end
			}
			if ch.banks[i].casReady < end {
				ch.banks[i].casReady = end
			}
		}
		if ch.cmdFree < end {
			ch.cmdFree = end
		}
		m.stats.Refreshes++
		ch.nextRefresh += m.ct.refi
	}
}

// service runs the DRAM command sequence for r and stamps its finish time.
func (m *Memory) service(ch *channel, r *Request) {
	t := &m.ct
	row := r.row
	b := &ch.banks[r.bk]

	start := max(ch.now, r.Arrival)
	m.refreshUpTo(ch, start)

	rowHit := false
	switch {
	case b.openRow == row:
		rowHit = true
		m.stats.RowHits++
	case b.openRow == -1:
		m.stats.RowMisses++
		// ACT: respect tRRD across the rank and the command bus.
		act := max(start, ch.cmdFree, ch.lastAct+t.rrd)
		ch.lastAct = act
		b.openRow = row
		b.casReady = act + t.rcd
		b.preReady = act + t.ras
		ch.rehit(r.bk, row)
	default:
		m.stats.RowMisses++
		m.stats.RowConflicts++
		// PRE must respect tRAS since the opening ACT, the read-to-PRE
		// delay, and write recovery — all folded into preReady.
		pre := max(start, ch.cmdFree, b.preReady)
		act := max(pre+t.rp, ch.lastAct+t.rrd)
		ch.lastAct = act
		b.openRow = row
		b.casReady = act + t.rcd
		b.preReady = act + t.ras
		ch.rehit(r.bk, row)
	}

	// CAS issue: ACT-to-CAS readiness, command bus, CAS-to-CAS spacing, and
	// write-to-read turnaround when a read follows a write on this bank.
	cas := max(start, b.casReady, ch.cmdFree)
	if !r.Write && b.lastWriteEnd > 0 {
		cas = max(cas, b.lastWriteEnd+t.wtr)
	}
	ch.cmdFree = cas + t.ccd

	// Data burst occupies the channel's data bus for tBL.
	casLat := t.cl
	if r.Write {
		casLat = t.cwl
	}
	dataStart := max(cas+casLat, ch.dataFre)
	dataEnd := dataStart + t.bl
	ch.dataFre = dataEnd
	m.stats.DataBusBusy += t.bl

	if r.Write {
		b.lastWriteEnd = dataEnd
		b.preReady = max(b.preReady, dataEnd+t.wr)
		m.stats.Writes++
		m.stats.TotalWriteLatency += uint64(dataEnd - r.Arrival)
	} else {
		b.preReady = max(b.preReady, cas+t.rtp)
		m.stats.Reads++
		m.stats.TotalReadLatency += uint64(dataEnd - r.Arrival)
	}

	// The channel has committed decisions up to the CAS issue point.
	if cas > ch.now {
		ch.now = cas
	}
	r.finish = dataEnd
	r.served = true

	if m.audit != nil {
		m.audit(ServiceEvent{
			Channel: int(r.ch), Bank: int(r.bk), Row: row, Write: r.Write,
			RowHit: rowHit, CAS: cas, DataStart: dataStart, DataEnd: dataEnd,
		})
	}
}

// Horizon returns the scheduling horizon of the channel serving line: the
// later of its command horizon and data-bus free time. Cores use it to model
// finite write buffers — when the backlog behind a write grows too deep, the
// issuing core must stall.
func (m *Memory) Horizon(line uint64) int64 {
	chIdx, _, _, _ := m.geometry(line)
	ch := m.channels[chIdx]
	if ch.dataFre > ch.now {
		return ch.dataFre
	}
	return ch.now
}

// BulkTransferCycles returns the CPU cycles needed to stream nPages full
// pages through this tier at its peak bandwidth plus a fixed per-page
// controller overhead. Migration engines use the slower of the two tiers'
// figures (the paper: "the cost of migrating a page ... is governed by the
// slowest memory in the system").
func (m *Memory) BulkTransferCycles(nPages int) int64 {
	if nPages <= 0 {
		return 0
	}
	bytes := float64(nPages) * 4096
	cycles := int64(bytes / m.cfg.PeakBandwidth())
	const perPageOverhead = 200 // controller + remap update per page
	return cycles + int64(nPages)*perPageOverhead
}

// RecordBulkTransfer accounts a completed bulk migration burst against the
// tier's stats and invalidates every open row (the burst walks the whole
// array, destroying row locality). cycles must not be negative: horizons
// never move backward.
func (m *Memory) RecordBulkTransfer(nPages int, cycles int64) {
	if cycles < 0 {
		panic("memsim: RecordBulkTransfer with negative cycles")
	}
	m.stats.BulkTransfers++
	m.stats.BulkTransferredPages += uint64(nPages)
	m.stats.BulkTransferCyclesPaid += cycles
	for _, ch := range m.channels {
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.hit = 0
		ch.now += cycles
		ch.cmdFree = max(ch.cmdFree, ch.now)
		ch.dataFre = max(ch.dataFre, ch.now)
	}
}

// AdvanceTo moves every channel's scheduling horizon forward to cycle (used
// after externally-imposed pauses so stale horizons don't grant free
// bandwidth). It never moves horizons backward.
func (m *Memory) AdvanceTo(cycle int64) {
	for _, ch := range m.channels {
		if ch.now < cycle {
			ch.now = cycle
		}
	}
}
