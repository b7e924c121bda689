package main

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"testing"
)

var (
	lambdaRE = regexp.MustCompile(`expected faults per rank-horizon: ([0-9.]+)`)
	perGBRE  = regexp.MustCompile(`uncorrectable FIT: [0-9.]+ per rank, ([0-9.]+) per GB`)
	ratioRE  = regexp.MustCompile(`HBM/DDR uncorrectable FIT ratio per GB: ([0-9.]+)x`)
)

// study is what one faultsim run prints, per tier in topology order (DDR,
// then HBM) plus the closing ratio.
type study struct {
	lambda, perGB []float64
	ratio         float64
}

func runFaultsim(t *testing.T, args ...string) study {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("faultsim %v exited %d: %s", args, code, &stderr)
	}
	floats := func(re *regexp.Regexp) []float64 {
		var out []float64
		for _, m := range re.FindAllStringSubmatch(stdout.String(), -1) {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}
	s := study{lambda: floats(lambdaRE), perGB: floats(perGBRE)}
	ratio := floats(ratioRE)
	if len(s.lambda) != 2 || len(s.perGB) != 2 || len(ratio) != 1 {
		t.Fatalf("faultsim %v: want 2 tier studies and one ratio, got\n%s", args, &stdout)
	}
	s.ratio = ratio[0]
	return s
}

// TestRatioMatchesPrintedFITs pins that the closing ratio is the quotient of
// the two per-GB FITs printed above it, under non-default -years and
// -hbm-multiplier, and that -years reaches both studies while
// -hbm-multiplier reaches only the HBM one.
func TestRatioMatchesPrintedFITs(t *testing.T) {
	base := runFaultsim(t, "-trials", "300", "-parallel", "2")
	s := runFaultsim(t, "-trials", "300", "-parallel", "2", "-years", "10", "-hbm-multiplier", "8")

	// FITs and fault counts print with 4 decimals, the ratio with none.
	const half = 0.00005
	ddr, hbm := s.perGB[0], s.perGB[1]
	lo, hi := (hbm-half)/(ddr+half), (hbm+half)/(ddr-half)
	if s.ratio < lo-0.5 || s.ratio > hi+0.5 {
		t.Errorf("printed ratio %.0fx, but printed FITs give %.4f/%.4f = %.1fx", s.ratio, hbm, ddr, hbm/ddr)
	}

	// Expected fault counts are linear in the horizon and the multiplier:
	// doubling -years doubles both; -hbm-multiplier 8 (default 2) scales
	// only HBM's by another 4.
	scaled := func(got, base, k float64) bool { return math.Abs(got-k*base) <= (1+k)*half }
	if !scaled(s.lambda[0], base.lambda[0], 2) {
		t.Errorf("DDR faults per horizon %.4f, want 2x %.4f (-years 10)", s.lambda[0], base.lambda[0])
	}
	if !scaled(s.lambda[1], base.lambda[1], 8) {
		t.Errorf("HBM faults per horizon %.4f, want 8x %.4f (-years 10, -hbm-multiplier 8)", s.lambda[1], base.lambda[1])
	}
}
