package faultsim

import (
	"testing"
)

func TestPermanentRatesPlausible(t *testing.T) {
	p := SridharanPermanent()
	if p.Total() <= 0 {
		t.Fatal("empty permanent rates")
	}
	// The field study: permanent multi-bit modes (row/bank/column) carry a
	// much larger share than for transients.
	tr := SridharanTransient()
	permMulti := p.Row + p.Bank + p.Column
	transMulti := tr.Row + tr.Bank + tr.Column
	if permMulti/p.Total() <= transMulti/tr.Total() {
		t.Fatal("permanent faults should skew toward multi-bit modes")
	}
}

// timedStudy returns a study with both fault classes and a daily scrub.
func timedStudy(org Organization, seed uint64) *Study {
	s := NewStudy(org, SridharanTransient(), seed)
	s.Permanent = SridharanPermanent()
	s.ScrubIntervalHours = 24
	return s
}

func TestScrubLifetimes(t *testing.T) {
	s := timedStudy(DDR3ChipKill(), 1)
	s.HorizonHours = 100
	s.ScrubIntervalHours = 10

	trans := fault{onset: 12}                // alive [12, 20)
	trans2 := fault{onset: 18}               // alive [18, 20)
	trans3 := fault{onset: 25}               // alive [25, 30)
	perm := fault{onset: 5, permanent: true} // alive [5, 100)

	if got := s.aliveUntil(trans); got != 20 {
		t.Fatalf("aliveUntil = %v, want 20 (end of scrub window)", got)
	}
	if got := s.aliveUntil(perm); got != 100 {
		t.Fatalf("permanent aliveUntil = %v, want horizon", got)
	}
	if !s.coexist(trans, trans2) {
		t.Fatal("same-window transients must coexist")
	}
	if s.coexist(trans, trans3) {
		t.Fatal("different-window transients must not coexist")
	}
	if !s.coexist(perm, trans3) {
		t.Fatal("permanent fault coexists with later transient")
	}

	// Without scrubbing, transients persist to the horizon.
	s.ScrubIntervalHours = 0
	if got := s.aliveUntil(trans); got != 100 {
		t.Fatalf("unscrubbed aliveUntil = %v, want horizon", got)
	}
	if !s.coexist(trans, trans3) {
		t.Fatal("unscrubbed transients must coexist")
	}
	// Untimed faults (onset 0) always coexist.
	if !s.coexist(fault{}, fault{}) {
		t.Fatal("untimed faults must coexist")
	}
}

func TestScrubStudyValidation(t *testing.T) {
	s := timedStudy(DDR3ChipKill(), 1)
	if _, err := s.Run(0); err == nil {
		t.Error("zero trials accepted")
	}
	s.ScrubIntervalHours = -1
	if _, err := s.Run(100); err == nil {
		t.Error("negative scrub interval accepted")
	}
	bad := timedStudy(Organization{}, 1)
	if _, err := bad.Run(100); err == nil {
		t.Error("invalid organization accepted")
	}
}

func TestScrubbingReducesChipkillRisk(t *testing.T) {
	// ChipKill only fails on coexisting multi-chip faults; scrubbing
	// shortens transient lifetimes, so P(unc | k>=2) must drop.
	run := func(scrubHours float64) Result {
		s := timedStudy(DDR3ChipKill(), 0xBEEF)
		s.ScrubIntervalHours = scrubHours
		res, err := s.Run(60000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noScrub := run(0)
	daily := run(24)
	if noScrub.PUncGivenK[2] == 0 {
		t.Skip("no double-fault hits at this trial count")
	}
	if daily.PUncGivenK[2] >= noScrub.PUncGivenK[2] {
		t.Fatalf("scrubbing did not reduce double-fault risk: %v vs %v",
			daily.PUncGivenK[2], noScrub.PUncGivenK[2])
	}
}

func TestPermanentFaultsRaiseSecDedRisk(t *testing.T) {
	// The SEC-DED organization fails on any multi-bit-per-word mode;
	// permanent faults skew toward those, so the combined study must show
	// higher single-fault risk than the transient-only study.
	trans, err := NewStudy(HBMSecDed(), SridharanTransient(), 3).Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := timedStudy(HBMSecDed(), 3).Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if comb.PUncGivenK[1] <= trans.PUncGivenK[1] {
		t.Fatalf("permanent modes should raise P(unc|1): %v vs %v",
			comb.PUncGivenK[1], trans.PUncGivenK[1])
	}
	if comb.UncFITPerGB <= trans.UncFITPerGB {
		t.Fatalf("combined FIT %v should exceed transient-only %v",
			comb.UncFITPerGB, trans.UncFITPerGB)
	}
}

func TestScrubStudyDeterminism(t *testing.T) {
	run := func() Result {
		r, err := timedStudy(DDR3ChipKill(), 99).Run(5000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.PUnc != b.PUnc {
		t.Fatal("scrub study not deterministic")
	}
}
