package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 collisions between distinct seeds", same)
	}
}

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	if Derive(42, 1, 2) != Derive(42, 1, 2) {
		t.Fatal("Derive is not deterministic")
	}
	// Order sensitivity: shard (1,2) and (2,1) are different streams.
	if Derive(42, 1, 2) == Derive(42, 2, 1) {
		t.Fatal("Derive must be order-sensitive")
	}
	// Arity sensitivity: a salt of 0 is not a no-op.
	if Derive(42) == Derive(42, 0) {
		t.Fatal("Derive(s) must differ from Derive(s, 0)")
	}
	// No collisions across a realistic stratum × shard grid and nearby base
	// seeds — each cell must name a distinct RNG stream.
	seen := make(map[uint64][3]uint64)
	for base := uint64(0); base < 4; base++ {
		for k := uint64(0); k < 8; k++ {
			for shard := uint64(0); shard < 256; shard++ {
				d := Derive(base, k, shard)
				if prev, ok := seen[d]; ok {
					t.Fatalf("collision: (%d,%d,%d) and %v both derive %#x",
						base, k, shard, prev, d)
				}
				seen[d] = [3]uint64{base, k, shard}
			}
		}
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 1 << 20, 1<<63 + 5} {
		for i := 0; i < 200; i++ {
			v := r.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const trials = 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(17)
	for _, mean := range []float64{0.5, 3, 20, 200} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	r := New(1)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
	if v := r.Poisson(-3); v != 0 {
		t.Fatalf("Poisson(-3) = %d", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfRange(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 1.1, 100)
	for i := 0; i < 10000; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf rank %d out of range", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(33)
	const n = 1000
	z := NewZipf(r, 1.0, n)
	counts := make([]int, n)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be sampled much more often than rank n/2.
	if counts[0] < 10*counts[n/2] {
		t.Fatalf("Zipf not skewed: rank0=%d rank%d=%d", counts[0], n/2, counts[n/2])
	}
	// And the empirical ratio between rank 0 and rank 9 should approximate
	// the theoretical 10x for s=1.
	ratio := float64(counts[0]) / float64(counts[9])
	if ratio < 7 || ratio > 13 {
		t.Fatalf("Zipf rank0/rank9 ratio = %v, want ~10", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(35)
	const n = 8
	z := NewZipf(r, 0, n)
	counts := make([]int, n)
	const trials = 80000
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("uniform zipf bucket %d = %d, want ~%.0f", k, c, want)
		}
	}
}

func TestZipfWeightsSumToOne(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 0.8, 50)
	sum := 0.0
	for k := 0; k < z.N(); k++ {
		w := z.Weight(k)
		if w <= 0 {
			t.Fatalf("weight(%d) = %v", k, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if z.Weight(-1) != 0 || z.Weight(z.N()) != 0 {
		t.Fatal("out-of-range weight must be 0")
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for _, c := range []struct {
		s float64
		n int
	}{{1, 0}, {-1, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%v,%v): expected panic", c.s, c.n)
				}
			}()
			NewZipf(r, c.s, c.n)
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1.0, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
