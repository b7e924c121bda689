package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"hmem"
	"hmem/internal/exec"
	"hmem/internal/experiments"
)

// maxEngines bounds the engines the service keeps. Past it, the least
// recently used idle engine is retired; engines with work in flight are
// never retired, so the set may exceed the bound while all of them are busy.
const maxEngines = 16

// engineEntry is one live engine: the experiments runner for a resolved
// option set, whose block memo answers every evaluation on it, the digest
// that names the option set, and the holders whose work on it has not
// settled yet.
type engineEntry struct {
	runner *experiments.Runner
	digest string

	refs    int            // holders; only an entry with none may be retired
	lastUse uint64         // enginePool.clock at the latest acquire or release
	patches []OptionsPatch // byPatch keys resolving here, dropped with the entry
}

// enginePool holds the service's engines. Every engine shares the pool's
// fault-study store, so a cold option set pays for its own simulations
// only. Counters of retired engines fold into the retired totals, which
// keeps the engine-summed /metrics families monotonic across eviction.
type enginePool struct {
	mu       sync.Mutex
	byDigest map[string]*engineEntry
	// byPatch short-circuits resolution: OptionsPatch value → entry, skipping
	// the probe engine and reflective digest per request. Distinct patches
	// resolving to one option set share the entry.
	byPatch map[OptionsPatch]*engineEntry
	clock   uint64

	evictions    uint64
	retiredMemo  exec.MemoStats
	retiredTrace experiments.TraceStats
	retiredSims  experiments.SimStats

	studies experiments.StudyStore
}

// engineTotals is a point-in-time summary of the pool for /metrics.
type engineTotals struct {
	memo      exec.MemoStats
	trace     experiments.TraceStats
	sims      experiments.SimStats
	live      int
	evictions uint64
	// recordingBytes sums the trace recordings of live engines only: a
	// retired engine's recordings are garbage.
	recordingBytes int64
}

// optionsDigest canonically fingerprints a resolved option set. Parallel is
// normalized out: it only changes scheduling, never a result, so requests
// differing only in worker count share an engine.
func optionsDigest(o hmem.Options) string {
	o.Parallel = 0
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", o)))
	return hex.EncodeToString(sum[:8])
}

// acquireEngine resolves an option patch to its engine, creating it on
// first use, and holds it: the caller must releaseEngine once the work it
// started on the engine has settled.
func (s *Service) acquireEngine(patch *OptionsPatch) (*engineEntry, error) {
	key := OptionsPatch{}
	if patch != nil {
		key = *patch
	}
	p := &s.engines
	p.mu.Lock()
	if en, ok := p.byPatch[key]; ok {
		p.holdLocked(en)
		p.mu.Unlock()
		return en, nil
	}
	p.mu.Unlock()
	en, err := s.acquireEngineForOptions(key.apply(s.cfg.Defaults))
	if err != nil {
		return nil, err
	}
	// Held, so still live: record the shortcut unless a racing resolution
	// of the same patch already did.
	p.mu.Lock()
	if _, ok := p.byPatch[key]; !ok {
		p.byPatch[key] = en
		en.patches = append(en.patches, key)
	}
	p.mu.Unlock()
	return en, nil
}

// acquireEngineForOptions is acquireEngine on a fully-resolved option set —
// also the entry workers use to rebuild a shard's engine from its wire
// options. On coordinators every new engine gets the cluster delegate, so
// its expensive blocks fan out to workers from the first request.
func (s *Service) acquireEngineForOptions(opts hmem.Options) (*engineEntry, error) {
	probe, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	digest := optionsDigest(probe.Options())
	p := &s.engines
	p.mu.Lock()
	defer p.mu.Unlock()
	if en, ok := p.byDigest[digest]; ok {
		p.holdLocked(en)
		return en, nil
	}
	if s.cluster != nil && s.cluster.sched != nil {
		d, err := newClusterDelegate(s, probe.Options(), digest)
		if err != nil {
			return nil, err
		}
		probe.SetDelegate(d)
	}
	if s.cfg.TraceWrap != nil {
		probe.SetTraceWrap(s.cfg.TraceWrap)
	}
	probe.SetStudyStore(&p.studies)
	en := &engineEntry{runner: probe, digest: digest}
	p.byDigest[digest] = en
	p.holdLocked(en)
	p.evictLocked()
	return en, nil
}

// releaseEngine drops one hold taken by acquireEngine; the last one makes
// the engine eligible for retirement.
func (s *Service) releaseEngine(en *engineEntry) {
	p := &s.engines
	p.mu.Lock()
	defer p.mu.Unlock()
	en.refs--
	p.clock++
	en.lastUse = p.clock
	if en.refs == 0 {
		p.evictLocked()
	}
}

func (p *enginePool) holdLocked(en *engineEntry) {
	en.refs++
	p.clock++
	en.lastUse = p.clock
}

// evictLocked retires least-recently-used idle engines while the pool is
// over maxEngines, folding each one's counters into the retired totals.
func (p *enginePool) evictLocked() {
	for len(p.byDigest) > maxEngines {
		var victim *engineEntry
		for _, en := range p.byDigest {
			if en.refs == 0 && (victim == nil || en.lastUse < victim.lastUse) {
				victim = en
			}
		}
		if victim == nil {
			return
		}
		delete(p.byDigest, victim.digest)
		for _, k := range victim.patches {
			delete(p.byPatch, k)
		}
		p.retiredMemo = p.retiredMemo.Add(victim.runner.CacheStats())
		p.retiredTrace = p.retiredTrace.Add(victim.runner.TraceStats())
		p.retiredSims = p.retiredSims.Add(victim.runner.SimStats())
		p.evictions++
	}
}

// engineTotals sums the counters of every engine, live and retired.
func (s *Service) engineTotals() engineTotals {
	p := &s.engines
	p.mu.Lock()
	defer p.mu.Unlock()
	t := engineTotals{memo: p.retiredMemo, trace: p.retiredTrace, sims: p.retiredSims, live: len(p.byDigest), evictions: p.evictions}
	for _, en := range p.byDigest {
		t.memo = t.memo.Add(en.runner.CacheStats())
		t.trace = t.trace.Add(en.runner.TraceStats())
		t.sims = t.sims.Add(en.runner.SimStats())
		t.recordingBytes += en.runner.RecordingBytes()
	}
	return t
}
