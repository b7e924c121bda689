package experiments

import (
	"context"
	"sync"

	"hmem/internal/exec"
	"hmem/internal/faultsim"
)

// studyStoreCap bounds a StudyStore's entries. Each entry is one tier's
// study outcome; the built-in topologies need three distinct ones per trial
// count, so the bound only matters under traffic that varies trial counts.
const studyStoreCap = 32

// StudyStore shares fault-study outcomes between runners. A tier's
// uncorrectable FIT/GB depends only on its organization, its fault seed and
// the trial count (the field fault rates are fixed), never on the workload
// seed or trace length, so runners that differ in those share one study:
// hmemd, which builds a runner per options digest, pays for each distinct
// study once per process instead of once per digest. Keys are the resolved
// tier content, not a topology name, so topologies with an identical tier
// share its study too.
//
// A runner consults a store only when one is installed (SetStudyStore); a
// runner without one behaves exactly as before. The store keeps at most
// studyStoreCap outcomes, dropping the oldest first. The zero value is ready
// to use; all methods are safe for concurrent use.
type StudyStore struct {
	memo exec.Memo[studyKey, float64]

	mu    sync.Mutex
	order []studyKey // stored keys, oldest first
}

// studyKey is a study's identity.
type studyKey struct {
	org    faultsim.Organization
	seed   uint64
	trials int
}

// do returns the key's uncorrectable FIT/GB, computing it with run on a
// miss. Concurrent callers of one key share a single computation.
func (st *StudyStore) do(ctx context.Context, key studyKey, run func() (float64, error)) (float64, error) {
	fresh := false
	v, err := st.memo.DoCtx(ctx, key, func() (float64, error) {
		fresh = true
		return run()
	})
	if fresh && err == nil {
		st.mu.Lock()
		st.order = append(st.order, key)
		if len(st.order) > studyStoreCap {
			st.memo.Forget(st.order[0])
			st.order = st.order[1:]
		}
		st.mu.Unlock()
	}
	return v, err
}

// known reports whether the key's study is finished or in flight.
func (st *StudyStore) known(key studyKey) bool { return st.memo.Known(key) }

// Runs reports how many studies the store has started: one per distinct
// study, plus one per recomputation after an eviction or a failure.
func (st *StudyStore) Runs() uint64 { return st.memo.Stats().Misses }

// SetStudyStore installs a shared fault-study store. Install before serving
// requests.
func (r *Runner) SetStudyStore(st *StudyStore) { r.studies.Store(st) }

// tierStudyKey returns the identity of a tier's study.
func (r *Runner) tierStudyKey(tier int) studyKey {
	td := r.topo.Tiers[tier]
	return studyKey{org: td.Org, seed: td.FaultSeed, trials: r.opts.FaultTrials}
}

// StudiesKnown reports whether every fault study this runner's Fits needs is
// finished or in flight in its installed store, so that scoring a result
// costs no study of its own. False without a store.
func (r *Runner) StudiesKnown() bool {
	st := r.studies.Load()
	if st == nil {
		return false
	}
	for i, td := range r.topo.Tiers {
		if td.FITPerGB > 0 {
			continue
		}
		if !st.known(r.tierStudyKey(i)) {
			return false
		}
	}
	return true
}

// tierFIT returns one tier's uncorrectable FIT/GB from its study, through
// the installed store when there is one.
func (r *Runner) tierFIT(ctx context.Context, tier int, study *faultsim.Study) (float64, error) {
	run := func() (float64, error) {
		res, err := r.runStudy(ctx, tier, study)
		return res.UncFITPerGB, err
	}
	if st := r.studies.Load(); st != nil {
		return st.do(ctx, r.tierStudyKey(tier), run)
	}
	return run()
}
