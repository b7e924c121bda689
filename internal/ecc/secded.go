package ecc

import "math/bits"

// SECDED72 is the (72,64) single-error-correct double-error-detect code used
// by the HBM tier. It is an extended Hamming code: seven check bits at
// codeword positions 1,2,4,...,64 plus an overall parity bit at position 0.
// Data bits occupy the remaining 64 positions.
//
// A Codeword72 stores the 72 bits as Lo (codeword bits 0..63) and Hi
// (codeword bits 64..71 in its low byte).
type Codeword72 struct {
	Lo uint64
	Hi uint8
}

// Bit returns codeword bit i (0..71).
func (c Codeword72) Bit(i int) uint {
	if i < 64 {
		return uint(c.Lo>>uint(i)) & 1
	}
	return uint(c.Hi>>uint(i-64)) & 1
}

// FlipBit returns the codeword with bit i (0..71) inverted.
func (c Codeword72) FlipBit(i int) Codeword72 {
	if i < 64 {
		c.Lo ^= 1 << uint(i)
	} else {
		c.Hi ^= 1 << uint(i-64)
	}
	return c
}

// dataPositions lists the 64 codeword positions holding data bits: positions
// 1..71 that are not powers of two and not the overall-parity position 0.
var dataPositions = func() [64]int {
	var out [64]int
	n := 0
	for p := 1; p < 72 && n < 64; p++ {
		if p&(p-1) == 0 { // 1,2,4,...,64 are check positions
			continue
		}
		out[n] = p
		n++
	}
	if n != 64 {
		panic("ecc: SECDED construction broken")
	}
	return out
}()

// EncodeSECDED encodes 64 data bits into a 72-bit codeword.
func EncodeSECDED(data uint64) Codeword72 {
	var cw Codeword72
	// Scatter data bits.
	for i, pos := range dataPositions {
		if data>>uint(i)&1 != 0 {
			cw = cw.FlipBit(pos)
		}
	}
	// Hamming check bits: bit at position 2^k covers positions with bit k
	// set in their index.
	for k := uint(0); k < 7; k++ {
		parity := uint(0)
		for p := 1; p < 72; p++ {
			if p&(1<<k) != 0 && p != 1<<k {
				parity ^= cw.Bit(p)
			}
		}
		if parity != 0 {
			cw = cw.FlipBit(1 << k)
		}
	}
	// Overall parity at position 0 makes total weight even.
	total := uint(bits.OnesCount64(cw.Lo)) ^ uint(bits.OnesCount8(cw.Hi))
	if total&1 != 0 {
		cw = cw.FlipBit(0)
	}
	return cw
}

// Outcome classifies a decode attempt.
type Outcome uint8

// Decode outcomes. Miscorrect means the decoder "corrected" to the wrong
// word without noticing — silent data corruption. Decoders can only return
// it when the caller knows the original data (tests and fault studies do).
const (
	OK Outcome = iota
	Corrected
	DetectedUncorrectable
	Miscorrected
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	case Miscorrected:
		return "miscorrected"
	default:
		return "outcome(?)"
	}
}

// DecodeSECDED decodes a possibly-corrupted codeword. It returns the decoded
// data and what the decoder *believes* happened (OK, Corrected, or
// DetectedUncorrectable). With three or more bit errors the decoder may
// return Corrected with wrong data; callers who know the ground truth can
// detect that (see the tests and faultsim).
func DecodeSECDED(cw Codeword72) (data uint64, outcome Outcome) {
	// Syndrome: XOR of positions of set bits (positions 1..71).
	syndrome := 0
	for p := 1; p < 72; p++ {
		if cw.Bit(p) != 0 {
			syndrome ^= p
		}
	}
	totalParity := uint(bits.OnesCount64(cw.Lo)+bits.OnesCount8(cw.Hi)) & 1

	switch {
	case syndrome == 0 && totalParity == 0:
		outcome = OK
	case totalParity == 1:
		// Odd number of errors: assume single, correct at syndrome position
		// (syndrome 0 with odd parity means the parity bit itself flipped).
		if syndrome < 72 {
			cw = cw.FlipBit(syndrome)
			outcome = Corrected
		} else {
			outcome = DetectedUncorrectable
		}
	default:
		// Non-zero syndrome with even parity: double error detected.
		outcome = DetectedUncorrectable
	}

	for i, pos := range dataPositions {
		if cw.Bit(pos) != 0 {
			data |= 1 << uint(i)
		}
	}
	return data, outcome
}
