package workload

import (
	"fmt"
	"sync"

	"hmem/internal/trace"
)

// Cores is the evaluated machine width (Table 1: 16 cores).
const Cores = 16

// coreStride spaces per-core address spaces: "Each copy has its own memory
// pages and different copies of the same workload don't share pages" (§3.3).
const coreStride = uint64(1) << 26 // pages; 256 GiB apart

// Member is one benchmark with a copy count inside a workload spec.
type Member struct {
	Bench  string
	Copies int
}

// Spec names a 16-core workload: either 16 copies of one benchmark or one
// of the paper's Table 2 mixes.
type Spec struct {
	Name    string
	Members []Member
}

// Validate checks the spec names known benchmarks and fills exactly 16 cores.
func (s Spec) Validate() error {
	total := 0
	for _, m := range s.Members {
		if _, err := Lookup(m.Bench); err != nil {
			return fmt.Errorf("workload: spec %s: %w", s.Name, err)
		}
		if m.Copies <= 0 {
			return fmt.Errorf("workload: spec %s: non-positive copies for %s", s.Name, m.Bench)
		}
		total += m.Copies
	}
	if total != Cores {
		return fmt.Errorf("workload: spec %s: %d copies, want %d", s.Name, total, Cores)
	}
	return nil
}

// Homogeneous returns the 16-copies-of-one-benchmark spec.
func Homogeneous(bench string) Spec {
	return Spec{Name: bench, Members: []Member{{Bench: bench, Copies: Cores}}}
}

// HomogeneousNames lists the paper's nine homogeneous workloads: seven SPEC
// CPU2006 benchmarks plus the two DoE proxies (§3.3).
func HomogeneousNames() []string {
	return []string{"astar", "cactusADM", "lbm", "libquantum", "mcf", "milc", "soplex", "xsbench", "lulesh"}
}

// MixSpecs returns the paper's Table 2 datacenter mixes.
func MixSpecs() []Spec {
	return []Spec{
		{Name: "mix1", Members: []Member{
			{"mcf", 3}, {"lbm", 2}, {"milc", 2}, {"omnetpp", 1}, {"astar", 2},
			{"sphinx", 1}, {"soplex", 2}, {"libquantum", 2}, {"gcc", 1},
		}},
		{Name: "mix2", Members: []Member{
			{"mcf", 2}, {"lbm", 3}, {"soplex", 3}, {"dealII", 3},
			{"GemsFDTD", 2}, {"bzip", 1}, {"cactusADM", 2},
		}},
		{Name: "mix3", Members: []Member{
			{"omnetpp", 2}, {"astar", 1}, {"sphinx", 2}, {"dealII", 1},
			{"libquantum", 1}, {"leslie3d", 2}, {"gcc", 2}, {"GemsFDTD", 2},
			{"bzip", 1}, {"cactusADM", 2},
		}},
		{Name: "mix4", Members: []Member{
			{"mcf", 1}, {"lbm", 1}, {"milc", 1}, {"soplex", 3}, {"dealII", 1},
			{"libquantum", 3}, {"leslie3d", 1}, {"gcc", 1}, {"GemsFDTD", 1},
			{"bzip", 2}, {"cactusADM", 1},
		}},
		{Name: "mix5", Members: []Member{
			{"dealII", 3}, {"leslie3d", 3}, {"GemsFDTD", 1}, {"bzip", 3},
			{"bwaves", 1}, {"cactusADM", 5},
		}},
	}
}

// AllSpecs returns every evaluated workload: nine homogeneous + five mixes.
func AllSpecs() []Spec {
	var out []Spec
	for _, n := range HomogeneousNames() {
		out = append(out, Homogeneous(n))
	}
	return append(out, MixSpecs()...)
}

// specIndex is the lazily-built name → spec table behind SpecByName: every
// evaluated workload, and every benchmark as a homogeneous workload. The
// lists are static, and hot paths (request validation, Runner.Evaluate,
// Runner.Execute) resolve a name per call, so a lookup allocates nothing.
var (
	specIndexOnce sync.Once
	specIndex     map[string]Spec
)

// SpecByName resolves a workload name against AllSpecs; any single
// benchmark is also addressable as a homogeneous workload.
func SpecByName(name string) (Spec, error) {
	specIndexOnce.Do(func() {
		specIndex = make(map[string]Spec)
		for _, n := range Names() {
			specIndex[n] = Homogeneous(n)
		}
		for _, s := range AllSpecs() {
			specIndex[s.Name] = s
		}
	})
	if s, ok := specIndex[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Suite is a materialized 16-core workload: one generator per core plus the
// merged structure table.
type Suite struct {
	Spec       Spec
	Generators []*Generator
	Structures []Structure
}

// Build instantiates the spec's generators, one per core, each emitting
// recordsPerCore records. Seeds are derived per core so every core's stream
// is independent but the whole suite is reproducible from one seed.
func (s Spec) Build(recordsPerCore int, seed uint64) (*Suite, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if recordsPerCore <= 0 {
		return nil, fmt.Errorf("workload: recordsPerCore must be positive")
	}
	suite := &Suite{Spec: s}
	core := 0
	for _, m := range s.Members {
		prof, err := Lookup(m.Bench)
		if err != nil {
			return nil, err
		}
		for c := 0; c < m.Copies; c++ {
			g, err := NewGenerator(prof, uint64(core)*coreStride, recordsPerCore,
				seed^(uint64(core)*0x9E3779B97F4A7C15+1))
			if err != nil {
				return nil, fmt.Errorf("workload: spec %s core %d: %w", s.Name, core, err)
			}
			suite.Generators = append(suite.Generators, g)
			suite.Structures = append(suite.Structures, g.Structures()...)
			core++
		}
	}
	return suite, nil
}

// Streams returns the generators as trace.Streams.
func (s *Suite) Streams() []trace.Stream {
	out := make([]trace.Stream, len(s.Generators))
	for i, g := range s.Generators {
		out[i] = g
	}
	return out
}

// FootprintPages returns the suite's total footprint.
func (s *Suite) FootprintPages() int {
	total := 0
	for _, g := range s.Generators {
		total += g.FootprintPages()
	}
	return total
}
