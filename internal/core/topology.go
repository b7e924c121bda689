package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"hmem/internal/faultsim"
	"hmem/internal/memsim"
)

// TierDesc describes one memory tier of a topology: its display name, the
// memsim timing/geometry configuration that sizes and times it, and the
// reliability model faultsim uses to price a page's residence there. The
// struct is plain data with JSON tags so topologies can be loaded from files
// (hmemd -topology-file, cmd/experiments -topology-file).
type TierDesc struct {
	// Name labels the tier in placement errors, tables, and metrics.
	Name string `json:"name"`
	// Mem is the tier's memsim configuration (capacity, channels, timing).
	Mem memsim.Config `json:"mem"`
	// Org is the protected-rank organization the Monte-Carlo fault study
	// runs to derive the tier's uncorrectable FIT per GB. Ignored when
	// FITPerGB is set.
	Org faultsim.Organization `json:"org,omitempty"`
	// FaultSeed seeds the tier's fault study. Distinct per-tier seeds keep
	// the studies independent; the built-in defaults reproduce the paper's
	// studies bit-identically.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FITPerGB, when positive, fixes the tier's uncorrectable FIT per GB
	// directly and skips the Monte-Carlo study — for topology files that
	// carry field-measured rates.
	FITPerGB float64 `json:"fit_per_gb,omitempty"`
	// WriteBudget, when positive, is the per-frame write endurance budget
	// (endurance-limited technologies such as PCM-class NVM). The placement
	// layer counts writes per frame and reports budget overruns; zero means
	// unlimited endurance and costs nothing on the write path.
	WriteBudget uint64 `json:"write_budget,omitempty"`
}

// Topology is an ordered list of memory tiers plus the placement semantics
// that bind them: which tier is the fast (migration-target) tier and in what
// order first-touch allocation fills tiers, spilling to the next when one
// runs out of frames. Tier order is load-bearing: tier indices are the dense
// avf.Tier values every per-access structure is keyed by, and all
// floating-point aggregation iterates tiers in ascending index, so a given
// topology produces bit-identical results everywhere.
type Topology struct {
	// Name identifies the topology (registry key, service API value).
	Name string `json:"name"`
	// Tiers lists the tiers; the slice index is the tier id.
	Tiers []TierDesc `json:"tiers"`
	// FastTier indexes the performance tier migration mechanisms fill —
	// the generalization of "HBM" in the two-tier default.
	FastTier int `json:"fast_tier"`
	// AllocOrder is the first-touch allocation order: a page lands in the
	// first listed tier with a free frame and spills down the list. The
	// default topology allocates in DDR only (never spilling into HBM),
	// matching the paper's first-touch-to-slow-tier policy.
	AllocOrder []int `json:"alloc_order"`
}

// Built-in topology names.
const (
	// DefaultTopologyName is the paper's two-tier HBM/DDR machine.
	DefaultTopologyName = "hbm-ddr"
	// DRAMNVMTopologyName is the three-tier HBM/DRAM/NVM expansion scenario
	// with endurance accounting on the NVM tier.
	DRAMNVMTopologyName = "dram-nvm"
)

// Validate reports construction errors. A validated topology is safe to hand
// to the simulator: every index is in range, every tier sized and timed.
func (t *Topology) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("core: topology needs a name")
	}
	if len(t.Tiers) < 2 {
		return fmt.Errorf("core: topology %s: need at least 2 tiers, got %d", t.Name, len(t.Tiers))
	}
	seen := make(map[string]bool, len(t.Tiers))
	for i, td := range t.Tiers {
		if td.Name == "" {
			return fmt.Errorf("core: topology %s: tier %d needs a name", t.Name, i)
		}
		if seen[td.Name] {
			return fmt.Errorf("core: topology %s: duplicate tier name %q", t.Name, td.Name)
		}
		seen[td.Name] = true
		if err := td.Mem.Validate(); err != nil {
			return fmt.Errorf("core: topology %s: tier %s: %w", t.Name, td.Name, err)
		}
		if td.FITPerGB < 0 {
			return fmt.Errorf("core: topology %s: tier %s: FITPerGB must be non-negative", t.Name, td.Name)
		}
		if td.FITPerGB == 0 {
			if err := td.Org.Validate(); err != nil {
				return fmt.Errorf("core: topology %s: tier %s: %w", t.Name, td.Name, err)
			}
		}
	}
	if t.FastTier < 0 || t.FastTier >= len(t.Tiers) {
		return fmt.Errorf("core: topology %s: FastTier %d out of range [0,%d)", t.Name, t.FastTier, len(t.Tiers))
	}
	if len(t.AllocOrder) == 0 {
		return fmt.Errorf("core: topology %s: AllocOrder must not be empty", t.Name)
	}
	inOrder := make(map[int]bool, len(t.AllocOrder))
	for _, ti := range t.AllocOrder {
		if ti < 0 || ti >= len(t.Tiers) {
			return fmt.Errorf("core: topology %s: AllocOrder tier %d out of range [0,%d)", t.Name, ti, len(t.Tiers))
		}
		if inOrder[ti] {
			return fmt.Errorf("core: topology %s: AllocOrder repeats tier %d", t.Name, ti)
		}
		inOrder[ti] = true
	}
	return nil
}

// TierName returns tier i's display name, with a stable "tier<N>" fallback
// for out-of-range indices.
func (t *Topology) TierName(i int) string {
	if i >= 0 && i < len(t.Tiers) {
		return t.Tiers[i].Name
	}
	return fmt.Sprintf("tier%d", i)
}

// TotalPages sums tier capacities in pages.
func (t *Topology) TotalPages() uint64 {
	var total uint64
	for _, td := range t.Tiers {
		total += td.Mem.Pages()
	}
	return total
}

// FastPages returns the fast tier's capacity in pages.
func (t *Topology) FastPages() uint64 { return t.Tiers[t.FastTier].Mem.Pages() }

// ParseTopology decodes and validates a topology from JSON.
func ParseTopology(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("core: parsing topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// DefaultTopology returns the paper's Table 1 machine as a topology: tier 0
// is off-package DDR3 with ChipKill, tier 1 on-package HBM with SEC-DED.
// The tier order, fault seeds, and DDR-only allocation order are exactly the
// values the pre-topology code hardwired, so the default topology reproduces
// every figure and table byte-identically.
func DefaultTopology(scaleDiv int) *Topology {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return &Topology{
		Name: DefaultTopologyName,
		Tiers: []TierDesc{
			{
				Name:      "DDR",
				Mem:       memsim.DDR3(uint64(16<<30) / uint64(scaleDiv)),
				Org:       faultsim.DDR3ChipKill(),
				FaultSeed: 0xD0D0,
			},
			{
				Name:      "HBM",
				Mem:       memsim.HBM(uint64(1<<30) / uint64(scaleDiv)),
				Org:       faultsim.HBMSecDed(),
				FaultSeed: 0x4B1D,
			},
		},
		FastTier:   1,
		AllocOrder: []int{0},
	}
}

// DRAMNVMTopology returns the built-in three-tier expansion scenario: a
// PCM-class NVM capacity tier with a per-frame write budget (tier 0), a
// DDR3 DRAM middle tier that takes first touches (tier 1), and the HBM
// performance tier (tier 2). First-touch allocation fills DRAM and spills
// to NVM; migration mechanisms promote into HBM exactly as they do in the
// two-tier default.
func DRAMNVMTopology(scaleDiv int) *Topology {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return &Topology{
		Name: DRAMNVMTopologyName,
		Tiers: []TierDesc{
			{
				Name:      "NVM",
				Mem:       memsim.NVM(uint64(16<<30) / uint64(scaleDiv)),
				Org:       faultsim.NVMDimm(),
				FaultSeed: 0x7733,
				// PCM-class endurance scaled to simulation length: the
				// placement layer reports frames whose write count crosses
				// this budget.
				WriteBudget: 4096,
			},
			{
				Name:      "DRAM",
				Mem:       memsim.DDR3(uint64(2<<30) / uint64(scaleDiv)),
				Org:       faultsim.DDR3ChipKill(),
				FaultSeed: 0xD0D0,
			},
			{
				Name:      "HBM",
				Mem:       memsim.HBM(uint64(1<<30) / uint64(scaleDiv)),
				Org:       faultsim.HBMSecDed(),
				FaultSeed: 0x4B1D,
			},
		},
		FastTier:   2,
		AllocOrder: []int{1, 0},
	}
}

// The process-level topology registry: the built-ins plus any custom
// topologies loaded from files. Built-ins are constructed per request so the
// caller's scale divisor applies; registered topologies are stored as given
// (their capacities are explicit) and scaleDiv is ignored for them.
var (
	topoMu     sync.Mutex
	topoCustom = map[string]*Topology{}
)

// RegisterTopology validates t and adds it to the registry under its name.
// Built-in names cannot be shadowed; re-registering the same custom name
// replaces it (reloading a file is not an error).
func RegisterTopology(t *Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Name == DefaultTopologyName || t.Name == DRAMNVMTopologyName {
		return fmt.Errorf("core: topology name %q is built in", t.Name)
	}
	topoMu.Lock()
	defer topoMu.Unlock()
	topoCustom[t.Name] = t
	return nil
}

// TopologyByName resolves a topology: the built-ins are constructed at
// scaleDiv; registered topologies are returned as registered. Unknown names
// report the valid set.
func TopologyByName(name string, scaleDiv int) (*Topology, error) {
	switch name {
	case DefaultTopologyName:
		return DefaultTopology(scaleDiv), nil
	case DRAMNVMTopologyName:
		return DRAMNVMTopology(scaleDiv), nil
	}
	topoMu.Lock()
	t, ok := topoCustom[name]
	topoMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown topology %q (valid: %s)", name, knownTopologies())
	}
	return t, nil
}

// TopologyNames lists the resolvable topology names: built-ins first, then
// registered customs in sorted order.
func TopologyNames() []string {
	out := []string{DefaultTopologyName, DRAMNVMTopologyName}
	topoMu.Lock()
	for name := range topoCustom {
		out = append(out, name)
	}
	topoMu.Unlock()
	sort.Strings(out[2:])
	return out
}

func knownTopologies() string {
	names := TopologyNames()
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
