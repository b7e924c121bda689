package memsim

import (
	"strings"
	"testing"
	"testing/quick"

	"hmem/internal/xrand"
)

// small returns a compact DDR3-timed config for unit tests.
func small() Config {
	c := DDR3(1 << 20) // 1 MiB
	return c
}

func TestConfigValidate(t *testing.T) {
	good := small()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.RanksPerChannel = 0 },
		func(c *Config) { c.BanksPerRank = -1 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.CapacityBytes = 4097 },
		func(c *Config) { c.BusBytesPerBeat = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.QueueDepth = 65 },
		func(c *Config) { c.Timing.TCK = 0 },
		func(c *Config) { c.Timing.TBL = 0 },
	}
	for i, mut := range mutations {
		c := small()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
	deep := small()
	deep.QueueDepth = 64
	if err := deep.Validate(); err != nil {
		t.Errorf("64-slot window rejected: %v", err)
	}
	deep.QueueDepth = 65
	if err := deep.Validate(); err == nil || !strings.Contains(err.Error(), "DDR3") {
		t.Errorf("65-slot window: error %v, want one naming the tier", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := small()
	c.Channels = 0
	New(c)
}

func TestGeometryBounds(t *testing.T) {
	m := New(small())
	rng := xrand.New(5)
	for i := 0; i < 10000; i++ {
		line := rng.Uint64n(m.cfg.Lines())
		ch, bk, row, col := m.geometry(line)
		if ch < 0 || ch >= m.cfg.Channels {
			t.Fatalf("channel %d out of range", ch)
		}
		if bk < 0 || bk >= m.cfg.RanksPerChannel*m.cfg.BanksPerRank {
			t.Fatalf("bank %d out of range", bk)
		}
		if row < 0 {
			t.Fatalf("negative row %d", row)
		}
		if col >= m.cfg.LinesPerRow() {
			t.Fatalf("column %d out of range", col)
		}
	}
}

func TestGeometryChannelInterleave(t *testing.T) {
	m := New(small())
	ch0, _, _, _ := m.geometry(0)
	ch1, _, _, _ := m.geometry(1)
	if ch0 == ch1 {
		t.Fatal("consecutive lines should map to different channels")
	}
}

func TestGeometryInjective(t *testing.T) {
	m := New(small())
	seen := map[[4]uint64]uint64{}
	for line := uint64(0); line < 4096; line++ {
		ch, bk, row, col := m.geometry(line)
		key := [4]uint64{uint64(ch), uint64(bk), uint64(row), col}
		if prev, dup := seen[key]; dup {
			t.Fatalf("lines %d and %d collide at %v", prev, line, key)
		}
		seen[key] = line
	}
}

func TestIdleReadLatency(t *testing.T) {
	m := New(small())
	r := &Request{Line: 0, Arrival: 0}
	m.Enqueue(r)
	got := m.Complete(r)
	// ACT@0 + tRCD(11*4) -> CAS@44 + tCL(11*4) -> data@88 + tBL(4*4) = 104.
	if got != 104 {
		t.Fatalf("idle read latency = %d, want 104", got)
	}
	if !r.Finished() || r.Finish() != 104 {
		t.Fatal("Finish/Finished inconsistent")
	}
}

func TestRowHitFasterThanMissAndConflict(t *testing.T) {
	cfg := small()

	// Miss then hit on the same row.
	m := New(cfg)
	miss := &Request{Line: 0, Arrival: 0}
	m.Enqueue(miss)
	m.Complete(miss)
	hit := &Request{Line: uint64(cfg.Channels), Arrival: miss.Finish()} // same channel, next column
	m.Enqueue(hit)
	m.Complete(hit)
	hitLat := hit.Finish() - hit.Arrival

	// Miss then conflict: same bank, different row.
	m2 := New(cfg)
	first := &Request{Line: 0, Arrival: 0}
	m2.Enqueue(first)
	m2.Complete(first)
	nbk := uint64(cfg.RanksPerChannel * cfg.BanksPerRank)
	conflictLine := uint64(cfg.Channels) * cfg.LinesPerRow() * nbk // same channel+bank, next row
	conflict := &Request{Line: conflictLine, Arrival: first.Finish()}
	m2.Enqueue(conflict)
	m2.Complete(conflict)
	confLat := conflict.Finish() - conflict.Arrival

	missLat := miss.Finish() - miss.Arrival
	if !(hitLat < missLat && missLat < confLat) {
		t.Fatalf("latency ordering violated: hit=%d miss=%d conflict=%d", hitLat, missLat, confLat)
	}
	st := m2.Stats()
	if st.RowConflicts != 1 {
		t.Fatalf("RowConflicts = %d, want 1", st.RowConflicts)
	}
}

func TestStreamingApproachesPeakBandwidth(t *testing.T) {
	cfg := small()
	m := New(cfg)
	// Stream sequential lines: channel-interleaved row hits.
	const n = 4096
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{Line: uint64(i), Arrival: 0}
		m.Enqueue(reqs[i])
	}
	end := m.Drain()
	bytes := float64(n * 64)
	achieved := bytes / float64(end)
	peak := cfg.PeakBandwidth()
	if achieved < 0.85*peak {
		t.Fatalf("streaming bandwidth %.2f B/cc < 85%% of peak %.2f B/cc", achieved, peak)
	}
	if achieved > peak*1.001 {
		t.Fatalf("achieved bandwidth %.2f exceeds peak %.2f", achieved, peak)
	}
	if hr := m.Stats().RowHitRate(); hr < 0.9 {
		t.Fatalf("streaming row hit rate %.2f too low", hr)
	}
}

func TestHBMOutpacesDDR3(t *testing.T) {
	hbm := HBM(1 << 20)
	ddr := DDR3(1 << 20)
	ratio := hbm.PeakBandwidth() / ddr.PeakBandwidth()
	if ratio < 4 || ratio > 8.5 {
		t.Fatalf("HBM/DDR3 peak bandwidth ratio = %.2f, want 4-8 (paper: 4x-8x)", ratio)
	}

	// Random access sweep: HBM must actually deliver more under load.
	run := func(cfg Config) int64 {
		m := New(cfg)
		rng := xrand.New(77)
		for i := 0; i < 2000; i++ {
			m.Enqueue(&Request{Line: rng.Uint64n(cfg.Lines()), Arrival: int64(i) * 2})
		}
		return m.Drain()
	}
	if hbmEnd, ddrEnd := run(hbm), run(ddr); hbmEnd >= ddrEnd {
		t.Fatalf("HBM finished random sweep at %d, DDR3 at %d; HBM should be faster", hbmEnd, ddrEnd)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := small()
	m := New(cfg)
	opener := &Request{Line: 0, Arrival: 0}
	m.Enqueue(opener)
	m.Complete(opener)

	nbk := uint64(cfg.RanksPerChannel * cfg.BanksPerRank)
	conflictLine := uint64(cfg.Channels) * cfg.LinesPerRow() * nbk
	conflict := &Request{Line: conflictLine, Arrival: opener.Finish()}
	hit := &Request{Line: uint64(cfg.Channels), Arrival: opener.Finish()}
	m.Enqueue(conflict) // older
	m.Enqueue(hit)      // younger but row hit
	m.Drain()
	if hit.Finish() >= conflict.Finish() {
		t.Fatalf("FR-FCFS should serve the row hit first: hit=%d conflict=%d", hit.Finish(), conflict.Finish())
	}
}

func TestQueueOverflowForcesService(t *testing.T) {
	cfg := small()
	cfg.QueueDepth = 4
	m := New(cfg)
	reqs := make([]*Request, 64)
	for i := range reqs {
		// All to channel 0 so the single queue overflows.
		reqs[i] = &Request{Line: uint64(i) * uint64(cfg.Channels), Arrival: 0}
		m.Enqueue(reqs[i])
	}
	served := 0
	for _, r := range reqs {
		if r.Finished() {
			served++
		}
	}
	if served < len(reqs)-cfg.QueueDepth {
		t.Fatalf("only %d served before drain; queue depth %d not enforced", served, cfg.QueueDepth)
	}
	m.Drain()
	for i, r := range reqs {
		if !r.Finished() {
			t.Fatalf("request %d unserved after drain", i)
		}
	}
}

func TestEnqueuePanics(t *testing.T) {
	m := New(small())
	t.Run("out of range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		m.Enqueue(&Request{Line: m.cfg.Lines()})
	})
	t.Run("reuse served", func(t *testing.T) {
		r := &Request{Line: 0}
		m.Enqueue(r)
		m.Complete(r)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		m.Enqueue(r)
	})
}

func TestFinishPanicsUnserved(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Request{}).Finish()
}

func TestCompletePanicsOnForeignRequest(t *testing.T) {
	m := New(small())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Complete(&Request{Line: 1})
}

func TestWriteAccounting(t *testing.T) {
	m := New(small())
	w := &Request{Line: 0, Write: true, Arrival: 0}
	r := &Request{Line: uint64(m.cfg.Channels), Arrival: 0}
	m.Enqueue(w)
	m.Enqueue(r)
	m.Drain()
	st := m.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalWriteLatency == 0 || st.TotalReadLatency == 0 {
		t.Fatal("latency accounting missing")
	}
	if st.AvgReadLatency() <= 0 {
		t.Fatal("AvgReadLatency not positive")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	cfg := small()
	// Same bank, same row: write then read. The read must respect tWTR.
	m := New(cfg)
	w := &Request{Line: 0, Write: true, Arrival: 0}
	m.Enqueue(w)
	m.Complete(w)
	rd := &Request{Line: uint64(cfg.Channels), Arrival: w.Finish()}
	m.Enqueue(rd)
	m.Complete(rd)
	minCAS := w.Finish() + cfg.Timing.cc(cfg.Timing.TWTR)
	if rd.Finish() < minCAS+cfg.Timing.cc(cfg.Timing.TCL) {
		t.Fatalf("read after write finished at %d, violates tWTR floor %d",
			rd.Finish(), minCAS+cfg.Timing.cc(cfg.Timing.TCL))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		m := New(small())
		rng := xrand.New(123)
		reqs := make([]*Request, 500)
		for i := range reqs {
			reqs[i] = &Request{
				Line:    rng.Uint64n(m.cfg.Lines()),
				Write:   rng.Bool(0.3),
				Arrival: int64(i) * 3,
			}
			m.Enqueue(reqs[i])
		}
		m.Drain()
		out := make([]int64, len(reqs))
		for i, r := range reqs {
			out[i] = r.Finish()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic finish at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFinishNeverBeforeMinimumLatency(t *testing.T) {
	cfg := small()
	minLat := cfg.Timing.cc(cfg.Timing.TCWL + cfg.Timing.TBL) // fastest possible: open-row write
	f := func(seed uint64) bool {
		m := New(cfg)
		rng := xrand.New(seed)
		n := 50 + rng.Intn(200)
		reqs := make([]*Request, n)
		var at int64
		for i := range reqs {
			at += int64(rng.Intn(20))
			reqs[i] = &Request{Line: rng.Uint64n(cfg.Lines()), Write: rng.Bool(0.4), Arrival: at}
			m.Enqueue(reqs[i])
		}
		m.Drain()
		for _, r := range reqs {
			if r.Finish() < r.Arrival+minLat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDataBusNeverOversubscribed(t *testing.T) {
	cfg := small()
	m := New(cfg)
	rng := xrand.New(9)
	for i := 0; i < 3000; i++ {
		m.Enqueue(&Request{Line: rng.Uint64n(cfg.Lines()), Arrival: 0})
	}
	end := m.Drain()
	st := m.Stats()
	capacity := int64(cfg.Channels) * end
	if st.DataBusBusy > capacity {
		t.Fatalf("data bus busy %d exceeds capacity %d", st.DataBusBusy, capacity)
	}
}

func TestBulkTransferCycles(t *testing.T) {
	m := New(small())
	if got := m.BulkTransferCycles(0); got != 0 {
		t.Fatalf("BulkTransferCycles(0) = %d", got)
	}
	one := m.BulkTransferCycles(1)
	ten := m.BulkTransferCycles(10)
	if one <= 0 || ten <= one*9 {
		t.Fatalf("bulk transfer not scaling: 1 page = %d, 10 pages = %d", one, ten)
	}
	m.RecordBulkTransfer(10, ten)
	st := m.Stats()
	if st.BulkTransfers != 1 || st.BulkTransferredPages != 10 || st.BulkTransferCyclesPaid != ten {
		t.Fatalf("bulk stats = %+v", st)
	}
}

func TestRecordBulkTransferRejectsNegativeCycles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative bulk-transfer cycles accepted")
		}
	}()
	New(small()).RecordBulkTransfer(1, -1)
}

func TestRecordBulkTransferClosesRows(t *testing.T) {
	cfg := small()
	m := New(cfg)
	r1 := &Request{Line: 0, Arrival: 0}
	m.Enqueue(r1)
	m.Complete(r1)
	m.RecordBulkTransfer(1, 100)
	// Same row again: must be a miss because the burst closed it.
	r2 := &Request{Line: uint64(cfg.Channels), Arrival: r1.Finish() + 200}
	m.Enqueue(r2)
	m.Complete(r2)
	if m.Stats().RowHits != 0 {
		t.Fatalf("row survived bulk transfer: %+v", m.Stats())
	}
}

func TestResetStats(t *testing.T) {
	m := New(small())
	r := &Request{Line: 0}
	m.Enqueue(r)
	m.Complete(r)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatalf("ResetStats left %+v", m.Stats())
	}
}

func TestAdvanceTo(t *testing.T) {
	m := New(small())
	m.AdvanceTo(1000)
	r := &Request{Line: 0, Arrival: 0}
	m.Enqueue(r)
	if got := m.Complete(r); got < 1000 {
		t.Fatalf("request completed at %d, before advanced horizon", got)
	}
	m.AdvanceTo(500) // must not move backward
	r2 := &Request{Line: 1, Arrival: 0}
	m.Enqueue(r2)
	if got := m.Complete(r2); got < 1000 {
		t.Fatalf("horizon moved backward: %d", got)
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.AvgReadLatency() != 0 || s.RowHitRate() != 0 {
		t.Fatal("zero stats should yield zero rates")
	}
}

// requestRing recycles a fixed set of Requests round robin. Before a slot's
// request is reused it is forced to completion and Reset, so driving a Memory
// through the ring allocates nothing once every slot has been filled.
type requestRing struct {
	m    *Memory
	reqs []*Request
	next int
}

func newRequestRing(m *Memory, n int) *requestRing {
	return &requestRing{m: m, reqs: make([]*Request, n)}
}

func (q *requestRing) issue(line uint64, write bool, arrival int64) {
	r := q.reqs[q.next]
	if r == nil {
		r = &Request{Line: line, Write: write, Arrival: arrival}
		q.reqs[q.next] = r
	} else {
		q.m.Complete(r)
		r.Reset(line, write, arrival)
	}
	q.next = (q.next + 1) % len(q.reqs)
	q.m.Enqueue(r)
}

// TestSteadyStateZeroAllocs: with recycled Requests, Enqueue and Complete
// allocate nothing once the window is warm.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, cfg := range []Config{DDR3(1 << 24), HBM(1 << 24)} {
		m := New(cfg)
		ring := newRequestRing(m, 1024)
		rng := xrand.New(3)
		var at int64
		step := func() {
			at += int64(rng.Intn(8))
			ring.issue(rng.Uint64n(cfg.Lines()), rng.Bool(0.3), at)
		}
		for i := 0; i < 4096; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("%s: %.2f allocs per Enqueue/Complete, want 0", cfg.Name, allocs)
		}
	}
}

func BenchmarkRandomAccess(b *testing.B) {
	cfg := DDR3(1 << 26)
	m := New(cfg)
	ring := newRequestRing(m, 1024)
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.issue(rng.Uint64n(cfg.Lines()), false, int64(i))
	}
	m.Drain()
}

func BenchmarkStreaming(b *testing.B) {
	cfg := HBM(1 << 26)
	m := New(cfg)
	ring := newRequestRing(m, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.issue(uint64(i)%cfg.Lines(), false, int64(i))
	}
	m.Drain()
}
