// Package stats provides the small statistical toolkit the experiments need:
// geometric means, Pearson correlation (used for the paper's hotness-AVF
// ρ≈0.08 and write-ratio-AVF ρ≈-0.32 claims), and histogram binning
// (Figure 9b).
package stats

import "math"

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive entries make the
// geometric mean undefined; they are skipped and the mean is computed over
// the remaining entries (0 if none remain).
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics if the lengths differ, and returns 0 when either series has
// zero variance (correlation undefined).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram bins xs into nbins equal-width bins over [min, max]. Values
// outside the range clamp to the first/last bin. It returns the per-bin
// counts. nbins must be positive and max must exceed min.
func Histogram(xs []float64, min, max float64, nbins int) []int {
	if nbins <= 0 {
		panic("stats: Histogram with nbins <= 0")
	}
	if max <= min {
		panic("stats: Histogram with max <= min")
	}
	counts := make([]int, nbins)
	width := (max - min) / float64(nbins)
	for _, x := range xs {
		b := int((x - min) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
