package stats

import (
	"math"
	"testing"
	"testing/quick"

	"hmem/internal/xrand"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := mean(c.in); !approx(got, c.want, 1e-12) {
			t.Errorf("mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !approx(got, 2, 1e-12) {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 8, 0, -1}); !approx(got, 4, 1e-12) {
		t.Errorf("GeoMean skipping non-positive = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	if got := GeoMean([]float64{0, -2}); got != 0 {
		t.Errorf("GeoMean(all non-positive) = %v", got)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !approx(got, 1, 1e-12) {
		t.Errorf("Pearson positive = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !approx(got, -1, 1e-12) {
		t.Errorf("Pearson negative = %v, want -1", got)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	r := xrand.New(123)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	if got := Pearson(xs, ys); math.Abs(got) > 0.03 {
		t.Errorf("Pearson of independent series = %v, want ~0", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant series = %v, want 0", got)
	}
	if got := Pearson(nil, nil); got != 0 {
		t.Errorf("Pearson(nil,nil) = %v, want 0", got)
	}
}

func TestPearsonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestPearsonBounds(t *testing.T) {
	r := xrand.New(7)
	f := func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		n := 3 + rr.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormFloat64()
			ys[i] = rr.NormFloat64()
		}
		p := Pearson(xs, ys)
		return p >= -1-1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.5, 0.9, -1, 2}
	h := Histogram(xs, 0, 1, 2)
	// -1 clamps to bin 0; 2 clamps to bin 1.
	if h[0] != 3 || h[1] != 3 {
		t.Fatalf("Histogram = %v, want [3 3]", h)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("Histogram loses samples: %d != %d", total, len(xs))
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, c := range []struct {
		min, max float64
		bins     int
	}{{0, 1, 0}, {1, 1, 4}, {2, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Histogram(%v,%v,%v): expected panic", c.min, c.max, c.bins)
				}
			}()
			Histogram(nil, c.min, c.max, c.bins)
		}()
	}
}
