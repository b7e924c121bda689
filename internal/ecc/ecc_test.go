package ecc

import (
	"testing"
	"testing/quick"

	"hmem/internal/xrand"
)

// ---- GF(256) ---------------------------------------------------------------

func TestGFFieldAxioms(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 2000; i++ {
		a := byte(rng.Uint64())
		b := byte(rng.Uint64())
		c := byte(rng.Uint64())
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatal("multiplication not commutative")
		}
		if gfMul(a, gfMul(b, c)) != gfMul(gfMul(a, b), c) {
			t.Fatal("multiplication not associative")
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatal("multiplication not distributive over XOR")
		}
		if gfMul(a, 1) != a {
			t.Fatal("1 is not the multiplicative identity")
		}
		if b != 0 && gfMul(gfDiv(a, b), b) != a {
			t.Fatal("division is not multiplication inverse")
		}
	}
}

func TestGFExpLogRoundTrip(t *testing.T) {
	for x := 1; x < 256; x++ {
		if gfExp[gfLog[x]] != byte(x) {
			t.Fatalf("exp(log(%d)) = %d", x, gfExp[gfLog[x]])
		}
	}
	if gfLog[0] != -1 {
		t.Fatal("log(0) sentinel wrong")
	}
}

func TestGFPrimitiveElementOrder(t *testing.T) {
	// alpha generates the full multiplicative group: no repeats before 255.
	seen := map[byte]bool{}
	for e := 0; e < 255; e++ {
		v := gfPow(e)
		if seen[v] {
			t.Fatalf("alpha^%d repeats value %d", e, v)
		}
		seen[v] = true
	}
	if gfPow(255) != 1 || gfPow(0) != 1 {
		t.Fatal("alpha order is not 255")
	}
	if gfPow(-3) != gfPow(252) {
		t.Fatal("negative exponent wrap wrong")
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gfDiv(5, 0)
}

// ---- SEC-DED ----------------------------------------------------------------

func TestSECDEDRoundTripClean(t *testing.T) {
	f := func(data uint64) bool {
		got, out := DecodeSECDED(EncodeSECDED(data))
		return got == data && out == OK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDCorrectsEverySingleBit(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 50; trial++ {
		data := rng.Uint64()
		cw := EncodeSECDED(data)
		for pos := 0; pos < 72; pos++ {
			got, out := DecodeSECDED(cw.FlipBit(pos))
			if out != Corrected {
				t.Fatalf("bit %d: outcome %v, want Corrected", pos, out)
			}
			if got != data {
				t.Fatalf("bit %d: data corrupted after correction", pos)
			}
		}
	}
}

func TestSECDEDDetectsEveryDoubleBit(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		data := rng.Uint64()
		cw := EncodeSECDED(data)
		for a := 0; a < 72; a++ {
			for b := a + 1; b < 72; b++ {
				_, out := DecodeSECDED(cw.FlipBit(a).FlipBit(b))
				if out != DetectedUncorrectable {
					t.Fatalf("bits (%d,%d): outcome %v, want detected", a, b, out)
				}
			}
		}
	}
}

func TestSECDEDTripleBitIsHazardous(t *testing.T) {
	// With 3 flipped bits the decoder must never report OK; it either
	// detects or (believing a single error) miscorrects to wrong data.
	rng := xrand.New(4)
	miscorrections := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		data := rng.Uint64()
		cw := EncodeSECDED(data)
		a := rng.Intn(72)
		b := (a + 1 + rng.Intn(71)) % 72
		c := (b + 1 + rng.Intn(70)) % 72
		if c == a {
			c = (c + 1) % 72
		}
		got, out := DecodeSECDED(cw.FlipBit(a).FlipBit(b).FlipBit(c))
		if out == OK {
			t.Fatal("triple error reported clean")
		}
		if out == Corrected && got != data {
			miscorrections++
		}
	}
	if miscorrections == 0 {
		t.Fatal("expected some triple-bit miscorrections (SEC-DED limitation)")
	}
}

// ---- ChipKill ----------------------------------------------------------------

func randSymbols(rng *xrand.RNG) [CKDataSymbols]byte {
	var d [CKDataSymbols]byte
	for i := range d {
		d[i] = byte(rng.Uint64())
	}
	return d
}

func TestChipKillRoundTripClean(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		data := randSymbols(rng)
		got, out := DecodeChipKill(EncodeChipKill(data))
		if out != OK || got != data {
			t.Fatalf("clean decode failed: %v", out)
		}
	}
}

func TestChipKillCodewordsHaveZeroSyndromes(t *testing.T) {
	rng := xrand.New(6)
	for i := 0; i < 500; i++ {
		w := EncodeChipKill(randSymbols(rng))
		if ckEval(w, 0) != 0 || ckEval(w, 1) != 0 {
			t.Fatal("valid codeword has non-zero syndrome")
		}
	}
}

func TestChipKillCorrectsAnySingleSymbol(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		data := randSymbols(rng)
		cw := EncodeChipKill(data)
		sym := rng.Intn(CKSymbols)
		errVal := byte(1 + rng.Intn(255)) // any non-zero pattern: 1..8 bits
		corrupted := cw
		corrupted[sym] ^= errVal
		got, out := DecodeChipKill(corrupted)
		if out != Corrected {
			t.Fatalf("symbol %d pattern %02x: outcome %v", sym, errVal, out)
		}
		if got != data {
			t.Fatalf("symbol %d: data wrong after correction", sym)
		}
	}
}

func TestChipKillWholeChipFailure(t *testing.T) {
	// All 8 bits of one chip wrong — the marquee ChipKill scenario.
	rng := xrand.New(8)
	data := randSymbols(rng)
	cw := EncodeChipKill(data)
	for sym := 0; sym < CKSymbols; sym++ {
		corrupted := cw
		corrupted[sym] ^= 0xFF
		got, out := DecodeChipKill(corrupted)
		if out != Corrected || got != data {
			t.Fatalf("chip %d total failure not corrected: %v", sym, out)
		}
	}
}

func TestChipKillDoubleSymbolNeverSilentlyOK(t *testing.T) {
	rng := xrand.New(9)
	detected, aliased := 0, 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		data := randSymbols(rng)
		cw := EncodeChipKill(data)
		a := rng.Intn(CKSymbols)
		b := (a + 1 + rng.Intn(CKSymbols-1)) % CKSymbols
		cw[a] ^= byte(1 + rng.Intn(255))
		cw[b] ^= byte(1 + rng.Intn(255))
		got, out := DecodeChipKill(cw)
		switch {
		case out == OK:
			t.Fatal("double-symbol error decoded as clean")
		case out == DetectedUncorrectable:
			detected++
		case out == Corrected && got != data:
			aliased++ // silent corruption: known RS(18,16) limitation
		case out == Corrected && got == data:
			t.Fatal("double-symbol error 'corrected' to right data: impossible")
		}
	}
	if detected == 0 {
		t.Fatal("no double-symbol errors detected at all")
	}
	// Most double errors must be detected, not aliased.
	if float64(detected)/float64(trials) < 0.5 {
		t.Fatalf("only %d/%d double errors detected", detected, trials)
	}
	t.Logf("double-symbol: %d detected, %d aliased of %d", detected, aliased, trials)
}

func TestChipKillPropertySingleSymbol(t *testing.T) {
	rng := xrand.New(10)
	f := func(seed uint64) bool {
		r := xrand.New(seed ^ rng.Uint64())
		data := randSymbols(r)
		cw := EncodeChipKill(data)
		sym := r.Intn(CKSymbols)
		cw[sym] ^= byte(1 + r.Intn(255))
		got, out := DecodeChipKill(cw)
		return out == Corrected && got == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	names := map[Outcome]string{
		OK: "ok", Corrected: "corrected",
		DetectedUncorrectable: "detected-uncorrectable",
		Miscorrected:          "miscorrected",
		Outcome(99):           "outcome(?)",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	schemes := map[Scheme]string{None: "none", SECDED: "sec-ded", ChipKillSSC: "chipkill-ssc", Scheme(9): "scheme(?)"}
	for s, want := range schemes {
		if s.String() != want {
			t.Errorf("scheme %d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func BenchmarkEncodeSECDED(b *testing.B) {
	for i := 0; i < b.N; i++ {
		EncodeSECDED(uint64(i) * 0x9E3779B97F4A7C15)
	}
}

func BenchmarkDecodeSECDED(b *testing.B) {
	cw := EncodeSECDED(0xDEADBEEFCAFEF00D).FlipBit(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeSECDED(cw)
	}
}

func BenchmarkDecodeChipKill(b *testing.B) {
	rng := xrand.New(1)
	cw := EncodeChipKill(randSymbols(rng))
	cw[3] ^= 0x5A
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeChipKill(cw)
	}
}
