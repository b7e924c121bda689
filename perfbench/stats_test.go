package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, perMille int
		want        float64
		ok          bool
	}{
		{100, 500, 50, true},
		{100, 900, 90, true},  // exactly 10 samples beyond
		{100, 990, 99, false}, // one sample beyond
		{1000, 990, 990, true},
		{1000, 999, 999, false},
		{3, 500, 2, false},
		{1, 500, 1, false},
		{99, 900, 90, false}, // rank ceil(89.1) = 90 leaves 9 beyond
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.perMille)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %d‰) = %v, %v; want %v, %v", c.n, c.perMille, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 500); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n, perMille int
		ok          bool
	}{
		{10000, 999, true},
		{1000, 990, true},
		{999, 900, true},
		{100, 900, true},
		{99, 0, false},
	}
	for _, c := range cases {
		pm, _, ok := tail(seq(c.n))
		if pm != c.perMille || ok != c.ok {
			t.Errorf("tail(1..%d) = p%d‰ %v; want p%d‰ %v", c.n, pm, ok, c.perMille, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// around returns ten runs centred on m with a ±1% spread, in an order that
// pairs them unevenly with another around() series.
func around(m float64) []float64 {
	offs := []float64{-1, 0.5, -0.5, 1, 0, 0.25, -0.25, 0.75, -0.75, 0.1}
	xs := make([]float64, len(offs))
	for i, o := range offs {
		xs[i] = m * (1 + o/100)
	}
	return xs
}

func TestJudge(t *testing.T) {
	wide := []float64{100, 100, 100, 100, 100, 200, 200, 200, 200, 200}
	cases := []struct {
		name          string
		parent, chg   []float64
		lowerIsBetter bool
		bound         float64
		want          string
	}{
		{"clear win", around(100), around(90), true, 0.1, verdictImproved},
		{"within bound", around(100), around(103), true, 0.1, verdictNoWorse},
		{"beyond bound", around(100), around(115), true, 0.1, verdictRegressed},
		{"throughput drop", around(100), around(80), false, 0.1, verdictRegressed},
		{"throughput win", around(100), around(110), false, 0.1, verdictImproved},
		{"noise wider than bound", wide, wide[1:], true, 0.1, verdictUnresolved},
		{"wide but every run better", wide, around(90), true, 0.1, verdictNoWorse},
		{"no runs", nil, around(90), true, 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.chg, c.lowerIsBetter, c.bound); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestJudgeNeedsNineInTen: a change that is better on average but wins only
// eight of ten pairs is not an improvement.
func TestJudgeNeedsNineInTen(t *testing.T) {
	parent := around(100)
	change := around(95)
	change[0], change[1] = 200, 200
	if got := judge(parent, change, true, 0.25); got == verdictImproved {
		t.Fatalf("judge = %q with 8 of 10 wins", got)
	}
	change[1] = 90
	if got := judge(parent, change, true, 0.25); got != verdictImproved {
		t.Fatalf("judge = %q with 9 of 10 wins, want improved", got)
	}
}
