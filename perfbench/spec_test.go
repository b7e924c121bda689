package main

import "testing"

// TestMetricTablesMatchSpec keeps the metrics a run prints in step with
// BENCHMARK.json: the same names, units and directions, in the same order.
func TestMetricTablesMatchSpec(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []specMetric) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the benchmark %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)

	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	if len(s.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(s.Workloads), len(workloadOrder))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloadOrder[i])
		}
	}
}
