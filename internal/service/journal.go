package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hmem/internal/report"
)

// journalFileName is the append-only NDJSON log inside Config.JournalDir.
const journalFileName = "journal.ndjson"

// maxJobAttempts bounds how many times a journaled job may be (re)started.
// A job that was running at three consecutive crashes is treated as poison —
// the likeliest explanation is that the job itself kills the process — and
// is failed on replay instead of re-enqueued a fourth time.
const maxJobAttempts = 3

// journalRecord is one NDJSON line. Two ops share the type:
//
//   - "submit" records a job's existence and its full request, written
//     before the submission is acknowledged;
//   - "state" records a state transition (and, for done, the result table).
//
// Seq is assigned by the journal and strictly increases across restarts, so
// replay can order records without trusting file position, and re-enqueued
// runs are distinguishable from the original submission.
type journalRecord struct {
	Seq   int64     `json:"seq"`
	Op    string    `json:"op"`
	JobID string    `json:"job_id"`
	At    time.Time `json:"at"`

	// submit fields
	Experiment string        `json:"experiment,omitempty"`
	Options    *OptionsPatch `json:"options,omitempty"`
	IdemKey    string        `json:"idempotency_key,omitempty"`
	TimeoutMS  int64         `json:"timeout_ms,omitempty"`

	// state fields
	State  string        `json:"state,omitempty"`
	Error  string        `json:"error,omitempty"`
	Result *report.Table `json:"result,omitempty"`

	// Attempts is only written by the startup compaction rewrite: it carries
	// the number of running transitions the compacted-away history contained,
	// so poison detection keeps counting across compactions.
	Attempts int `json:"attempts,omitempty"`
}

// journal is the durable job log: append-only while the daemon runs,
// compacted down to each job's current state on the next startup so a
// long-lived daemon's replay time and disk use stay proportional to the
// number of jobs, not the number of transitions. Appends are best-effort by
// design: a full disk must degrade the durability guarantee, never the
// daemon — a failed write is retried once, then counted and surfaced on
// /metrics instead of propagated. A lost "submit" loses that job on
// restart; a lost terminal "state" record is worse — the journal still says
// running, so a restart re-executes a job that in fact finished. That
// violation of at-most-once is bounded (maxJobAttempts poisons a repeat
// offender) and is the price of never blocking the serving path on disk.
//
// Writes go through the OS page cache without fsync: the journal protects
// against process death (crash, OOM-kill, SIGKILL), which is the failure
// mode hmemd can do something about. Machine-level crash consistency would
// buy little for an advisory cache that can always recompute.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	w   io.Writer
	seq int64
	// dirty is set after a failed or short write: the file may end in a torn
	// fragment, so the next write leads with '\n' to sever it from the
	// fragment instead of gluing two records into one unparsable line.
	dirty bool

	appendErrs atomic.Uint64
}

// openJournal reads dir's existing journal (if any), compacts the file, and
// opens it for append; it returns the records it read, in seq order, and
// fills the returned RecoveryStats' CorruptLines and CompactedRecords. A
// torn trailing line — what a crash mid-append leaves behind — is skipped,
// as is any other unparsable line: a best-effort journal must not brick the
// daemon that owns it; the skips are counted so operators can tell a clean
// replay from a lossy one. wrap, when non-nil, decorates the append writer
// (fault-injection seam).
func openJournal(dir string, wrap func(io.Writer) io.Writer) (*journal, []journalRecord, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("service: creating journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	var recs []journalRecord
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				stats.CorruptLines++
				continue
			}
			recs = append(recs, rec)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, stats, fmt.Errorf("service: reading journal: %w", err)
	}
	// File order is already seq order for an intact journal; sort anyway so
	// a hand-edited or concatenated journal still replays coherently.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	var maxSeq int64
	for _, r := range recs {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}

	// Compact before opening for append: without this the file accumulates
	// every transition ever (plus one requeue record per interrupted job per
	// restart) and replay cost grows without bound for a long-lived daemon.
	// The rewrite is atomic (tmp + rename) and best-effort — if it fails the
	// old file is still valid, just larger, and appends continue past its
	// original tail. Replay compacts the records itself either way.
	kept := flattenJobs(compactRecords(recs))
	stats.CompactedRecords = len(recs) - len(kept)
	if (stats.CompactedRecords > 0 || stats.CorruptLines > 0) && rewriteJournal(path, kept) != nil {
		stats.CompactedRecords = 0
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("service: opening journal: %w", err)
	}
	// Compaction preserves original sequence numbers, so resuming from the
	// pre-compaction maximum keeps seq strictly increasing either way.
	jl := &journal{f: f, w: f, seq: maxSeq}
	if wrap != nil {
		jl.w = wrap(f)
	}
	return jl, recs, stats, nil
}

// compactedJob is one job's journal history reduced to what replays
// identically: its submit record, whose Attempts counts the running
// transitions before last, and its latest state record (nil while the job
// has none).
type compactedJob struct {
	submit journalRecord
	last   *journalRecord
}

// compactRecords collapses a record list, in seq order, to one compactedJob
// per job in submission order. Attempts accumulates across compactions.
// Orphaned state records, whose submit line was lost to corruption, are
// dropped: without a request to re-run there is nothing replay could do
// with them.
func compactRecords(recs []journalRecord) []*compactedJob {
	byID := map[string]*compactedJob{}
	var jobs []*compactedJob
	for _, rec := range recs {
		cj := byID[rec.JobID]
		switch {
		case rec.Op == "submit" && rec.JobID != "" && cj == nil:
			cj = &compactedJob{submit: rec}
			byID[rec.JobID] = cj
			jobs = append(jobs, cj)
		case rec.Op == "state" && cj != nil:
			if cj.last != nil && cj.last.State == JobRunning {
				cj.submit.Attempts++
			}
			r := rec
			cj.last = &r
		}
	}
	return jobs
}

// flattenJobs renders compacted jobs back into journal records, with their
// original sequence numbers and in seq order.
func flattenJobs(jobs []*compactedJob) []journalRecord {
	var out []journalRecord
	for _, cj := range jobs {
		out = append(out, cj.submit)
		if cj.last != nil {
			out = append(out, *cj.last)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// rewriteJournal atomically replaces the journal file with recs.
func rewriteJournal(path string, recs []journalRecord) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// append assigns the next sequence number and writes one line. Safe on a nil
// journal (journalling disabled). A failed write is retried once — a dropped
// terminal record does not just lose a result, it re-executes the job on
// restart — and each failed attempt is absorbed into the append-error
// counter. A result table json cannot encode (NaN/Inf cells) costs the
// record its result, never the transition: replay must still see the job as
// finished.
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.seq++
	rec.Seq = jl.seq
	data, err := json.Marshal(rec)
	if err != nil && rec.Result != nil {
		rec.Result = nil
		data, err = json.Marshal(rec)
	}
	if err != nil {
		jl.appendErrs.Add(1)
		return
	}
	data = append(data, '\n')
	for attempt := 0; attempt < 2; attempt++ {
		line := data
		if jl.dirty {
			line = append([]byte{'\n'}, data...)
		}
		if _, werr := jl.w.Write(line); werr == nil {
			jl.dirty = false
			return
		}
		jl.dirty = true
		jl.appendErrs.Add(1)
	}
}

// size reports the journal file's current size in bytes. Safe on nil; a
// stat failure reads as 0 (the gauge is advisory).
func (jl *journal) size() int64 {
	if jl == nil || jl.f == nil {
		return 0
	}
	fi, err := jl.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// appendErrors reports how many appends have been dropped. Safe on nil.
func (jl *journal) appendErrors() uint64 {
	if jl == nil {
		return 0
	}
	return jl.appendErrs.Load()
}

// close releases the journal file. Safe on nil.
func (jl *journal) close() {
	if jl != nil && jl.f != nil {
		jl.f.Close()
	}
}

// RecoveryStats summarizes a startup journal replay, for the daemon's
// one-line recovery log and tests.
type RecoveryStats struct {
	// Restored is the total number of jobs reconstructed from the journal.
	Restored int
	// Terminal of those were already done/failed/cancelled; their results
	// are served from memory again but they are not re-run.
	Terminal int
	// Requeued jobs were queued or running at the crash and have been
	// re-enqueued exactly once.
	Requeued int
	// PoisonFailed jobs hit maxJobAttempts and were failed instead of
	// re-enqueued.
	PoisonFailed int
	// CorruptLines is how many unparsable journal lines replay skipped. One
	// is the expected torn tail of a crash mid-append; more means the replay
	// was lossy (a skipped submit drops that job and orphans its states).
	CorruptLines int
	// CompactedRecords is how many superseded records the startup rewrite
	// dropped to keep the journal's size bounded.
	CompactedRecords int
}

// replayJournal rebuilds the job store from journal records and returns the
// jobs that must be re-enqueued, in original submission order. Each job is
// restored from its compacted form: queued as submitted, then moved to its
// latest journaled state by the live state machine, stamped with the
// record's time. Terminal jobs are restored for GET /v1/jobs/{id};
// interrupted ones either requeue (with a fresh journaled "queued"
// transition, so attempts accumulate across repeated crashes) or — at
// maxJobAttempts — fail as poison.
func (s *Service) replayJournal(recs []journalRecord) []*job {
	var requeue []*job
	for _, cj := range compactRecords(recs) {
		sub := cj.submit
		j := newJob(sub.JobID, JobRequest{
			Experiment: sub.Experiment, Options: sub.Options,
			TimeoutMS: sub.TimeoutMS, IdempotencyKey: sub.IdemKey,
		}, sub.At)
		s.jobs.insert(j)
		attempts := sub.Attempts
		if last := cj.last; last != nil {
			s.jobs.transition(j, last.State, last.Error, last.Result, last.At)
			if last.State == JobRunning {
				attempts++
			}
		}
		s.recovery.Restored++
		if terminal(j.State) {
			s.recovery.Terminal++
			continue
		}
		if attempts >= maxJobAttempts {
			s.setJobState(j, JobFailed, fmt.Sprintf(
				"interrupted %d times by daemon restarts; not retrying (poison job)", attempts), nil)
			s.recovery.PoisonFailed++
			continue
		}
		// Journal the fresh queued state so the *next* crash still sees the
		// accumulated running count and the requeue itself is exactly-once:
		// a replayed journal never contains a requeue decision, only states.
		if j.State != JobQueued {
			s.jobRetries.Add(1)
		}
		s.setJobState(j, JobQueued, "", nil)
		s.recovery.Requeued++
		requeue = append(requeue, j)
	}
	return requeue
}
