package memsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hmem/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/schedule.golden from the current scheduler")

const scheduleGolden = "testdata/schedule.golden"

// scheduleCases are the tier configurations whose schedules are pinned: the
// three presets, windows at the 64-slot bound and at an odd depth, and a
// geometry whose channel, bank and row counts are not powers of two (a
// topology file may declare one), so both address-mapping paths are pinned.
func scheduleCases() []Config {
	deep := DDR3(16 << 20)
	deep.Name, deep.QueueDepth = "DDR3-q64", 64
	shallow := HBM(16 << 20)
	shallow.Name, shallow.QueueDepth = "HBM-q5", 5
	odd := DDR3(15 << 20)
	odd.Name, odd.Channels, odd.BanksPerRank, odd.RowBytes = "DDR3-3ch6bk3k", 3, 6, 3*1024
	return []Config{DDR3(16 << 20), HBM(16 << 20), NVM(16 << 20), deep, shallow, odd}
}

// scheduleRun is what one seeded stream produced: the SHA-256 of its
// ServiceEvent sequence and final Stats, and counts showing which paths the
// stream took.
type scheduleRun struct {
	digest    string
	idleAhead int // enqueues arriving after their channel's horizon
	early     int // Completes of a request that was not the oldest in flight
	bulk, adv int // RecordBulkTransfer and AdvanceTo calls
	stats     Stats
}

// runSchedule drives one seeded random request stream through a fresh
// Memory and hashes the committed schedule. The stream mixes row-local and
// random lines, reads and writes, arrivals behind the horizon and far ahead
// of it, Completes of arbitrary in-flight requests, bulk transfers and
// horizon advances between enqueues, recycles served requests with Reset,
// and ends with a Drain.
func runSchedule(cfg Config, seed uint64) scheduleRun {
	m := New(cfg)
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	m.SetAudit(func(ev ServiceEvent) {
		put(int64(ev.Channel))
		put(int64(ev.Bank))
		put(ev.Row)
		flags := int64(0)
		if ev.Write {
			flags |= 1
		}
		if ev.RowHit {
			flags |= 2
		}
		put(flags)
		put(ev.CAS)
		put(ev.DataStart)
		put(ev.DataEnd)
	})

	var out scheduleRun
	rng := xrand.New(seed)
	lines := cfg.Lines()
	span := uint64(cfg.Channels) * cfg.LinesPerRow() * 2 // two rows per channel
	hot := rng.Uint64n(lines - span)
	var (
		clock    int64
		gap      = 12 // arrival spacing: bursts saturate the window, calm phases drain it
		inflight []*Request
		pool     []*Request
	)
	for i := 0; i < 20000; i++ {
		switch p := rng.Intn(1000); {
		case p < 4:
			m.RecordBulkTransfer(1+rng.Intn(8), int64(rng.Intn(5000)))
			out.bulk++
		case p < 8:
			clock += int64(rng.Intn(4000))
			m.AdvanceTo(clock)
			out.adv++
		case p < 150:
			if len(inflight) == 0 {
				break
			}
			k := rng.Intn(len(inflight))
			r := inflight[k]
			if !r.Finished() && k > 0 && !inflight[0].Finished() {
				out.early++
			}
			m.Complete(r)
			inflight = append(inflight[:k], inflight[k+1:]...)
			pool = append(pool, r)
		default:
			if rng.Bool(0.002) {
				gap = 12 + 160 - gap
			}
			clock += int64(rng.Intn(gap))
			arrival := clock
			switch q := rng.Intn(100); {
			case q < 4:
				arrival += int64(rng.Intn(20000))
			case q < 14:
				arrival = max(0, arrival-int64(rng.Intn(300)))
			}
			if rng.Bool(0.01) {
				hot = rng.Uint64n(lines - span)
			}
			line := rng.Uint64n(lines)
			if rng.Bool(0.6) {
				line = hot + rng.Uint64n(span)
			}
			write := rng.Bool(0.35)
			var r *Request
			if n := len(pool); n > 0 {
				r, pool = pool[n-1], pool[:n-1]
				r.Reset(line, write, arrival)
			} else {
				r = &Request{Line: line, Write: write, Arrival: arrival}
			}
			m.Enqueue(r)
			if arrival > m.HorizonOf(r) {
				out.idleAhead++
			}
			inflight = append(inflight, r)
			if len(inflight) > 512 {
				kept := inflight[:0]
				for _, r := range inflight {
					if r.Finished() {
						pool = append(pool, r)
					} else {
						kept = append(kept, r)
					}
				}
				inflight = kept
			}
		}
	}
	put(m.Drain())
	out.stats = m.Stats()
	fmt.Fprintf(h, "%+v", out.stats)
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// TestSchedulePinned pins the FR-FCFS schedule bit for bit: every committed
// command time and the final counters must equal the digests in
// testdata/schedule.golden. Regenerate them only for an intended schedule
// change:
//
//	go test ./internal/memsim -run TestSchedulePinned -update-golden
func TestSchedulePinned(t *testing.T) {
	seeds := []uint64{1, 2600345624, 0x5EED}
	got := map[string]string{}
	var names []string
	for _, cfg := range scheduleCases() {
		for _, seed := range seeds {
			name := fmt.Sprintf("%s/%d", cfg.Name, seed)
			run := runSchedule(cfg, seed)
			if run.idleAhead == 0 || run.early == 0 || run.bulk == 0 || run.adv == 0 {
				t.Fatalf("%s: stream missed a path: %+v", name, run)
			}
			if cfg.Timing.TREFI > 0 && run.stats.Refreshes == 0 {
				t.Fatalf("%s: no refresh fired", name)
			}
			got[name] = run.digest
			names = append(names, name)
		}
	}
	if *updateGolden {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(scheduleGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(scheduleGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(names) {
		t.Errorf("golden has %d digests, test produces %d", len(want), len(names))
	}
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: schedule digest %s, golden %s", n, got[n], want[n])
		}
	}
}
