package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 read from 200 samples rests on two values and says little.
const minBeyond = 10

// tailPerMille lists the tail percentiles tried from the highest down.
var tailPerMille = []int{999, 990, 900}

// percentile returns the nearest-rank percentile of sorted samples, perMille
// in (0, 1000]: the value at 1-based rank ceil(perMille·n/1000), computed in
// integers so that 0.99·1000 cannot round up to rank 991. ok reports whether
// at least minBeyond samples lie above that rank.
func percentile(sorted []float64, perMille int) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (perMille*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// tail returns the highest of tailPerMille that has minBeyond samples beyond
// it, or ok=false when there are too few samples for any.
func tail(sorted []float64) (perMille int, v float64, ok bool) {
	for _, pm := range tailPerMille {
		if v, ok := percentile(sorted, pm); ok {
			return pm, v, true
		}
	}
	return 0, 0, false
}

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the conventional median (mean of the middle pair for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so spreads
// printed here match the ones computed from the same values in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// Verdicts of the compare rule.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a change's runs against the parent's for one metric.
// Runs pair by index (the same seed on both sides). A change improves the
// metric only when it wins at least nine tenths of the pairs, ties counting
// for neither side, and its median is better by more than the parent's
// interquartile range. Otherwise the medians are held to the metric's
// bound, a share of the parent's median: a change worse by more than bound
// regressed. When either side's spread exceeds the bound the data cannot
// tell a regression from noise, so the verdict is unresolved, unless every
// change run beats every parent run.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) string {
	better := func(a, b float64) bool {
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(parent), len(change))
	if pairs == 0 {
		return verdictUnresolved
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if wins*10 >= 9*pairs && better(mc, mp) && math.Abs(mc-mp) > q3-q1 {
		return verdictImproved
	}
	if math.Max(spread(parent), spread(change)) > bound {
		clo, chi := extremes(change)
		plo, phi := extremes(parent)
		if (lowerIsBetter && chi < plo) || (!lowerIsBetter && clo > phi) {
			return verdictNoWorse
		}
		return verdictUnresolved
	}
	worse := (mc - mp) / math.Abs(mp)
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictRegressed
	}
	return verdictNoWorse
}

// extremes returns the smallest and largest of xs (non-empty).
func extremes(xs []float64) (lo, hi float64) {
	s := sortedCopy(xs)
	return s[0], s[len(s)-1]
}
