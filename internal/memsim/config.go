// Package memsim is an event-driven, command-level DRAM timing simulator for
// the two tiers of the paper's Heterogeneous Memory Architecture: off-package
// DDR3 (high reliability, ChipKill) and on-package HBM (high bandwidth,
// SEC-DED). It models channels, ranks, banks, row buffers, the command and
// data buses, and an FR-FCFS scheduler, at the ACT/PRE/RD/WR granularity —
// the level of detail placement and migration policies actually exercise.
//
// All times are in CPU cycles of the 3.2 GHz core clock from Table 1 of the
// paper; DRAM-clock parameters are converted via the per-tier TCK.
package memsim

import "fmt"

// Timing holds DRAM timing parameters. TCK is the DRAM command-clock period
// in CPU cycles; all other parameters are in DRAM clocks (as found in
// datasheets) and are converted to CPU cycles internally.
type Timing struct {
	TCK  int64 // CPU cycles per DRAM clock
	TCL  int64 // CAS (read) latency
	TCWL int64 // CAS write latency
	TRCD int64 // ACT-to-CAS delay
	TRP  int64 // precharge period
	TRAS int64 // ACT-to-PRE minimum
	TWR  int64 // write recovery before PRE
	TBL  int64 // data-bus burst occupancy for one cache line
	TCCD int64 // CAS-to-CAS minimum on a channel
	TRRD int64 // ACT-to-ACT minimum across banks of a rank
	TWTR int64 // write-to-read turnaround on a bank
	TRTP int64 // read-to-precharge delay
	// TREFI is the refresh interval and TRFC the refresh cycle time; while
	// an all-bank refresh runs the channel is blocked and every row is
	// closed. TREFI == 0 disables refresh.
	TREFI int64
	TRFC  int64
}

// cc converts a DRAM-clock count to CPU cycles.
func (t Timing) cc(clocks int64) int64 { return clocks * t.TCK }

// Config describes one memory tier.
type Config struct {
	// Name labels the tier in stats and reports ("DDR3", "HBM").
	Name string
	// CapacityBytes is the tier's usable capacity.
	CapacityBytes uint64
	// Channels is the number of independent channels.
	Channels int
	// RanksPerChannel and BanksPerRank shape bank-level parallelism.
	RanksPerChannel int
	BanksPerRank    int
	// RowBytes is the row-buffer size per bank.
	RowBytes uint64
	// BusBytesPerBeat is the data-bus width in bytes (8 for 64-bit DDRx,
	// 16 for 128-bit HBM).
	BusBytesPerBeat int
	// Timing is the tier's timing parameter set.
	Timing Timing
	// QueueDepth is the per-channel scheduler window for FR-FCFS, 1 to
	// maxQueueDepth requests (the scheduler keeps one bit per window slot
	// in a uint64 mask).
	QueueDepth int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("memsim: %s: Channels must be positive", c.Name)
	case c.RanksPerChannel <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("memsim: %s: ranks and banks must be positive", c.Name)
	case c.RowBytes == 0 || c.RowBytes%lineSize != 0:
		return fmt.Errorf("memsim: %s: RowBytes must be a positive multiple of %d", c.Name, lineSize)
	case c.CapacityBytes == 0 || c.CapacityBytes%4096 != 0:
		return fmt.Errorf("memsim: %s: CapacityBytes must be a positive multiple of the page size", c.Name)
	case c.BusBytesPerBeat <= 0:
		return fmt.Errorf("memsim: %s: BusBytesPerBeat must be positive", c.Name)
	case c.QueueDepth <= 0:
		return fmt.Errorf("memsim: %s: QueueDepth must be positive", c.Name)
	case c.QueueDepth > maxQueueDepth:
		return fmt.Errorf("memsim: %s: QueueDepth %d exceeds the %d-slot scheduler window", c.Name, c.QueueDepth, maxQueueDepth)
	case c.Timing.TCK <= 0 || c.Timing.TBL <= 0:
		return fmt.Errorf("memsim: %s: timing TCK and TBL must be positive", c.Name)
	case c.Timing.TREFI < 0 || c.Timing.TRFC < 0 || (c.Timing.TREFI > 0 && c.Timing.TRFC <= 0):
		return fmt.Errorf("memsim: %s: refresh timing invalid", c.Name)
	}
	return nil
}

// maxQueueDepth bounds Config.QueueDepth: one uint64 mask bit per slot.
const maxQueueDepth = 64

// lineSize is the cache-line transfer granularity in bytes.
const lineSize = 64

// LinesPerRow returns the number of cache lines in one row buffer.
func (c Config) LinesPerRow() uint64 { return c.RowBytes / lineSize }

// Lines returns the tier capacity in cache lines.
func (c Config) Lines() uint64 { return c.CapacityBytes / lineSize }

// Pages returns the tier capacity in 4 KiB pages.
func (c Config) Pages() uint64 { return c.CapacityBytes / 4096 }

// PeakBandwidth returns the aggregate peak data-bus bandwidth in bytes per
// CPU cycle: every channel streaming back-to-back line bursts.
func (c Config) PeakBandwidth() float64 {
	burst := float64(c.Timing.cc(c.Timing.TBL))
	return float64(c.Channels) * float64(lineSize) / burst
}

// DDR3 returns the Table 1 off-package configuration: DDR3-1600, 2 channels,
// 64-bit bus, 1 rank/channel, 8 banks/rank, ChipKill-class reliability (the
// ECC model itself lives in the faultsim package). capacity overrides the
// 16 GiB paper capacity so experiments can run at reduced scale.
func DDR3(capacity uint64) Config {
	return Config{
		Name:            "DDR3",
		CapacityBytes:   capacity,
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        8 * 1024,
		BusBytesPerBeat: 8,
		Timing: Timing{
			// 800 MHz command clock against the 3.2 GHz core: 4 CPU
			// cycles per DRAM clock. DDR3-1600K grade timings.
			TCK: 4,
			TCL: 11, TCWL: 8,
			TRCD: 11, TRP: 11, TRAS: 28, TWR: 12,
			TBL:  4, // 64B over 64-bit DDR bus = 8 beats = 4 clocks
			TCCD: 4, TRRD: 5, TWTR: 6, TRTP: 6,
			// 7.8 us refresh interval, ~260 ns all-bank refresh (4 Gb).
			TREFI: 6240, TRFC: 208,
		},
		QueueDepth: 32,
	}
}

// NVM returns a PCM-class non-volatile tier for N-tier topologies: a
// DDR3-like channel interface with a much slower cell array — roughly 3x the
// DRAM row-activation latency on reads, an order of magnitude longer write
// recovery, and no refresh (non-volatile cells hold state without it). The
// numbers follow the latency ratios commonly reported for first-generation
// PCM parts; only the ratios matter at the simulator's level of detail.
func NVM(capacity uint64) Config {
	return Config{
		Name:            "NVM",
		CapacityBytes:   capacity,
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        4 * 1024,
		BusBytesPerBeat: 8,
		Timing: Timing{
			TCK: 4,
			TCL: 11, TCWL: 8,
			// Array reads pay ~3x the DRAM ACT latency; writes (SET/RESET)
			// dominate the cell's program time via TWR.
			TRCD: 36, TRP: 11, TRAS: 53, TWR: 120,
			TBL:  4,
			TCCD: 4, TRRD: 5, TWTR: 30, TRTP: 6,
			// Non-volatile: no refresh.
			TREFI: 0, TRFC: 0,
		},
		QueueDepth: 32,
	}
}

// HBM returns the Table 1 on-package configuration: HBM at a 500 MHz command
// clock (DDR 1.0 GHz), 8 channels, 128-bit bus, 1 rank/channel, 8 banks/rank,
// SEC-DED-class reliability. capacity overrides the 1 GiB paper capacity.
func HBM(capacity uint64) Config {
	return Config{
		Name:            "HBM",
		CapacityBytes:   capacity,
		Channels:        8,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        2 * 1024,
		BusBytesPerBeat: 16,
		Timing: Timing{
			// 500 MHz command clock: 6.4 CPU cycles per DRAM clock,
			// rounded to 6 (documented scale approximation).
			TCK: 6,
			TCL: 7, TCWL: 4,
			TRCD: 7, TRP: 7, TRAS: 17, TWR: 8,
			TBL:  2, // 64B over 128-bit DDR bus = 4 beats = 2 clocks
			TCCD: 2, TRRD: 3, TWTR: 4, TRTP: 3,
			// 3.9 us refresh interval at stacked-die densities, ~160 ns RFC.
			TREFI: 1950, TRFC: 80,
		},
		QueueDepth: 32,
	}
}
