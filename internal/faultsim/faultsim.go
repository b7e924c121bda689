// Package faultsim is an event-based Monte-Carlo DRAM fault simulator in the
// style of FaultSim [44], which the paper uses to turn field-measured FIT
// rates into per-tier uncorrectable-error rates (§3.2): faults are injected
// into a modeled rank "in a bit, word, column, row, or bank based on their
// FIT rates, a selected error-correction scheme is applied, and the outcome
// is recorded as detected, corrected, or uncorrected".
//
// Transient-fault FIT rates default to the values published in the AMD field
// study the paper cites (Sridharan & Liberty, "A Study of DRAM Failures in
// the Field", SC'12) — the study's Jaguar data is not redistributable, but
// the per-chip transient rates are public in the paper itself.
//
// Because uncorrectable patterns under ChipKill need two faults from
// different chips to intersect in one ECC word — an event far too rare for
// naive Monte Carlo — the simulator stratifies by fault count: it computes
// the Poisson weight of observing k faults in the accumulation horizon
// analytically and estimates P(uncorrectable | k faults) by Monte Carlo for
// each k. This reproduces FaultSim's accumulation semantics at tractable
// trial counts.
package faultsim

import (
	"fmt"

	"hmem/internal/ecc"
)

// Mode is a DRAM fault footprint class.
type Mode uint8

// Fault modes, ordered as in the field study. Rank models the residual
// multi-device / beyond-ECC fault class (e.g. multi-rank faults in the
// field study) that no in-DIMM ECC corrects.
const (
	ModeBit Mode = iota
	ModeWord
	ModeColumn
	ModeRow
	ModeBank
	ModeRank
	numModes
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBit:
		return "bit"
	case ModeWord:
		return "word"
	case ModeColumn:
		return "column"
	case ModeRow:
		return "row"
	case ModeBank:
		return "bank"
	case ModeRank:
		return "rank"
	default:
		return "mode(?)"
	}
}

// Rates holds one fault class's FIT rates per DRAM chip (failures per 10^9
// device-hours) for each fault mode.
type Rates struct {
	Bit, Word, Column, Row, Bank, Rank float64
}

// SridharanTransient returns the per-chip transient FIT rates from the SC'12
// field study, plus a small beyond-ECC residual (multi-rank class).
func SridharanTransient() Rates {
	return Rates{
		Bit:    14.2,
		Word:   1.4,
		Column: 1.4,
		Row:    0.2,
		Bank:   0.8,
		Rank:   0.05,
	}
}

// SridharanPermanent returns the per-chip permanent-fault FIT rates from
// the SC'12 field study.
func SridharanPermanent() Rates {
	return Rates{
		Bit:    18.6,
		Word:   0.8,
		Column: 5.6,
		Row:    8.2,
		Bank:   10.0,
		Rank:   0.3,
	}
}

// of returns the rate for one mode.
func (r Rates) of(m Mode) float64 {
	switch m {
	case ModeBit:
		return r.Bit
	case ModeWord:
		return r.Word
	case ModeColumn:
		return r.Column
	case ModeRow:
		return r.Row
	case ModeBank:
		return r.Bank
	case ModeRank:
		return r.Rank
	default:
		return 0
	}
}

// Total returns the summed per-chip FIT across correctable-path modes
// (everything except Rank, which is adjudicated analytically).
func (r Rates) Total() float64 { return r.Bit + r.Word + r.Column + r.Row + r.Bank }

// Geometry describes the logical fault grid of one chip. Cols counts
// word-granularity column groups (the chip's contribution to one ECC word
// is one "col" cell of one row).
type Geometry struct {
	Banks, Rows, Cols int
	// GBPerChip is the chip's data capacity, used to normalize FIT per GB.
	GBPerChip float64
}

// Organization describes a protected memory rank: how many chips serve each
// ECC word and which scheme adjudicates error patterns.
type Organization struct {
	Name string
	// Chips sharing the ECC codeword. For ChipKill every word spans all
	// chips (one symbol each); for SEC-DED each word lives entirely inside
	// one chip (die-stacked organization).
	Chips  int
	Scheme ecc.Scheme
	Geom   Geometry
	// RawFITMultiplier scales the per-chip rates (the paper: die-stacked
	// memory has higher raw fault rates due to density and TSVs).
	RawFITMultiplier float64
}

// DDR3ChipKill returns the off-package organization: 18 x4 chips (16 data +
// 2 check) forming RS(18,16) words (see internal/ecc).
func DDR3ChipKill() Organization {
	return Organization{
		Name:   "DDR3-ChipKill",
		Chips:  18,
		Scheme: ecc.ChipKillSSC,
		Geom:   Geometry{Banks: 8, Rows: 32768, Cols: 1024, GBPerChip: 0.5},
		// Field-study rates are for this class of device: no scaling.
		RawFITMultiplier: 1.0,
	}
}

// HBMSecDed returns the on-package organization: each 64-bit word (plus
// 8 check bits) is read from a single die, so SEC-DED is the only practical
// protection (§2.2), and multi-bit faults within a word are fatal.
func HBMSecDed() Organization {
	return Organization{
		Name:   "HBM-SECDED",
		Chips:  8, // one die per channel
		Scheme: ecc.SECDED,
		Geom:   Geometry{Banks: 8, Rows: 16384, Cols: 512, GBPerChip: 0.125},
		// Higher bit density and TSV failure modes (§1, [43,44]).
		RawFITMultiplier: 2.0,
	}
}

// NVMDimm returns a PCM-class non-volatile organization for N-tier
// topologies: SEC-DED words inside one chip (like the die-stacked case) but
// with a reduced raw transient rate — non-volatile cells do not lose state
// to particle strikes, so the residual transient faults live in the CMOS
// periphery and sense circuits.
func NVMDimm() Organization {
	return Organization{
		Name:   "NVM-SECDED",
		Chips:  9, // 8 data + 1 check, inline SEC-DED
		Scheme: ecc.SECDED,
		Geom:   Geometry{Banks: 8, Rows: 65536, Cols: 2048, GBPerChip: 2.0},
		// Storage-class cells are immune to the strike-induced bit flips
		// behind the field-study rates; peripheral logic remains exposed.
		RawFITMultiplier: 0.1,
	}
}

// Validate reports configuration errors.
func (o Organization) Validate() error {
	switch {
	case o.Chips <= 0:
		return fmt.Errorf("faultsim: %s: Chips must be positive", o.Name)
	case o.Geom.Banks <= 0 || o.Geom.Rows <= 0 || o.Geom.Cols <= 0:
		return fmt.Errorf("faultsim: %s: geometry must be positive", o.Name)
	case o.Geom.GBPerChip <= 0:
		return fmt.Errorf("faultsim: %s: GBPerChip must be positive", o.Name)
	case o.RawFITMultiplier <= 0:
		return fmt.Errorf("faultsim: %s: RawFITMultiplier must be positive", o.Name)
	case o.Scheme != ecc.SECDED && o.Scheme != ecc.ChipKillSSC && o.Scheme != ecc.None:
		return fmt.Errorf("faultsim: %s: unsupported scheme", o.Name)
	}
	return nil
}

// DataGB returns the rank's data capacity in GB (check chips excluded for
// ChipKill; all chips carry data+ECC inline for the SEC-DED organization).
func (o Organization) DataGB() float64 {
	chips := o.Chips
	if o.Scheme == ecc.ChipKillSSC {
		chips = o.Chips - ecc.CKCheckSymbols
	}
	return float64(chips) * o.Geom.GBPerChip
}

// fault is one sampled fault instance. onset (hours since the horizon
// start) and permanent are only drawn by timed studies.
type fault struct {
	chip      int
	mode      Mode
	bank      int
	row       int
	col       int
	onset     float64
	permanent bool
}

// intersects reports whether the word footprints of two faults overlap,
// honoring per-mode wildcards (a row fault spans all columns, etc.).
func intersects(a, b fault) bool {
	if a.bank != b.bank {
		return false
	}
	rowWild := func(f fault) bool { return f.mode == ModeColumn || f.mode == ModeBank }
	colWild := func(f fault) bool { return f.mode == ModeRow || f.mode == ModeBank }
	if !rowWild(a) && !rowWild(b) && a.row != b.row {
		return false
	}
	if !colWild(a) && !colWild(b) && a.col != b.col {
		return false
	}
	return true
}

// multiBitPerWord reports whether a fault mode corrupts 2+ bits of a single
// ECC word when the word lives inside one chip (the SEC-DED organization).
func multiBitPerWord(m Mode) bool {
	return m == ModeWord || m == ModeRow || m == ModeBank
}
