package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hmem/internal/core"
	"hmem/internal/faultsim"
	"hmem/internal/trace"
)

// TestStudyStoreSharesAcrossRunners: runners that differ only in workload
// seed share every tier study through one store, a topology with an
// identical tier shares that tier's study too, and every runner's FITs are
// bit-identical to a runner without a store.
func TestStudyStoreSharesAcrossRunners(t *testing.T) {
	ctx := context.Background()
	var st StudyStore
	fitsOf := func(opts Options, store *StudyStore) faultsim.TierFITs {
		t.Helper()
		r := mustRunner(t, opts)
		if store != nil {
			r.SetStudyStore(store)
		}
		fits, err := r.Fits(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return fits
	}

	base := Options{FaultTrials: 1500}
	want := fitsOf(base, nil)
	probe := mustRunner(t, base)
	probe.SetStudyStore(&st)
	if probe.StudiesKnown() {
		t.Fatal("an empty store reports the studies known")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		opts := base
		opts.Seed = seed
		if got := fitsOf(opts, &st); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: shared-store FITs %+v, want %+v", seed, got, want)
		}
	}
	if n := st.Runs(); n != 2 {
		t.Fatalf("three hbm-ddr runners ran %d studies, want 2 (one per tier)", n)
	}
	if !probe.StudiesKnown() {
		t.Fatal("a warm store does not report the studies known")
	}

	// dram-nvm repeats hbm-ddr's DDR and HBM tiers: only its NVM tier is new.
	nvm := base
	nvm.Topology = "dram-nvm"
	if got, want := fitsOf(nvm, &st), fitsOf(nvm, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("dram-nvm shared-store FITs %+v, want %+v", got, want)
	}
	if n := st.Runs(); n != 3 {
		t.Fatalf("after a dram-nvm runner the store ran %d studies, want 3", n)
	}

	// A new trial count is a new study.
	more := base
	more.FaultTrials = 1600
	fitsOf(more, &st)
	if n := st.Runs(); n != 5 {
		t.Fatalf("after a new trial count the store ran %d studies, want 5", n)
	}
}

// TestStudyStoreBounded: the store keeps at most studyStoreCap outcomes,
// dropping the oldest first, and never keeps a failure.
func TestStudyStoreBounded(t *testing.T) {
	ctx := context.Background()
	var st StudyStore
	key := func(i int) studyKey { return studyKey{org: faultsim.HBMSecDed(), seed: 1, trials: i + 1} }
	value := func(i int) func() (float64, error) {
		return func() (float64, error) { return float64(i), nil }
	}
	for i := 0; i < 2*studyStoreCap; i++ {
		if v, err := st.do(ctx, key(i), value(i)); err != nil || v != float64(i) {
			t.Fatalf("do(%d) = %v, %v", i, v, err)
		}
		if n := st.memo.Len(); n > studyStoreCap {
			t.Fatalf("after %d studies the store holds %d, bound is %d", i+1, n, studyStoreCap)
		}
	}
	if st.known(key(studyStoreCap - 1)) {
		t.Fatal("an evicted study is still known")
	}
	if !st.known(key(2*studyStoreCap - 1)) {
		t.Fatal("the newest study was evicted")
	}

	boom := errors.New("boom")
	if _, err := st.do(ctx, key(-5), func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing study returned %v", err)
	}
	if st.known(key(-5)) {
		t.Fatal("a failed study was kept")
	}
}

// TestTieredExtensionSharesStoreAndWrap: the dram-nvm sub-runner of
// ExtensionTieredEndurance runs its fault studies through the runner's
// store, so a later dram-nvm runner on that store needs no study of its
// own, and its simulations consume the runner's trace wrap.
func TestTieredExtensionSharesStoreAndWrap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three-tier simulations")
	}
	opts := DefaultOptions()
	opts.Workloads = []string{"astar"}
	opts.RecordsPerCore = 4000
	opts.FaultTrials = 2000
	var st StudyStore
	r := mustRunner(t, opts)
	r.SetStudyStore(&st)
	var wrapped atomic.Int64
	r.SetTraceWrap(func(_ string, s trace.Stream) trace.Stream {
		wrapped.Add(1)
		return s
	})
	if _, err := r.ExtensionTieredEndurance(context.Background()); err != nil {
		t.Fatal(err)
	}
	opts.Topology = core.DRAMNVMTopologyName
	fresh := mustRunner(t, opts)
	fresh.SetStudyStore(&st)
	if !fresh.StudiesKnown() {
		t.Error("a dram-nvm runner on the store still needs its studies after the extension ran them")
	}
	if wrapped.Load() == 0 {
		t.Error("the extension's simulations bypassed the runner's trace wrap")
	}
}
