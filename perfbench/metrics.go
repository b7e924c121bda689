package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// metricDef names one reported metric. The same names, units and
// directions appear in BENCHMARK.json, which adds the regression bounds;
// TestMetricTablesMatchSpec keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of each workload sees, printed by every
// untraced run. An operation is one cold regeneration of a figure family
// on the figures workloads and one API call (a job submission counts with
// its watch) on the serve workloads. Error counts travel in the result's
// attempted/failed fields: an error rate would read 0 on a healthy run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Layer times are shares of the
// traced interval so that they add up with unattributed_frac to 1; a layer
// a workload never enters reads 0.
var perLayer = []metricDef{
	{"workload.generate_frac", "frac", "lower"},
	{"workload.ns_per_record", "ns", "lower"},
	{"workload.records", "count", "lower"},
	{"trace.opens", "count", "lower"},
	{"trace.coalesce_hits", "count", "higher"},
	{"sim.run_frac", "frac", "lower"},
	{"sim.ns_per_record", "ns", "lower"},
	{"sim.runs", "count", "lower"},
	{"sim.cycles", "cycles", "lower"},
	{"migration.decide_frac", "frac", "lower"},
	{"migration.decide_calls", "count", "lower"},
	{"migration.onaccess_calls", "count", "lower"},
	{"migration.pages_moved", "count", "lower"},
	{"faultsim.study_frac", "frac", "lower"},
	{"faultsim.trials", "count", "lower"},
	{"experiments.driver_frac", "frac", "lower"},
	{"exec.memo_hits", "count", "higher"},
	{"exec.memo_misses", "count", "lower"},
	{"exec.memo_hit_ratio", "ratio", "higher"},
	{"service.handler_frac", "frac", "lower"},
	{"http.transport_frac", "frac", "lower"},
	{"service.result_hits", "count", "higher"},
	{"service.result_misses", "count", "lower"},
	{"service.result_hit_ratio", "ratio", "higher"},
	{"service.admitted", "count", "higher"},
	{"service.shed", "count", "lower"},
	{"unattributed_frac", "frac", "lower"},
	{"tracing_overhead_frac", "frac", "lower"},
}

// outcome is what one run of a workload produced.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	spans     []span
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// problem records a failed correctness check; any problem makes the run
// incorrect.
func (o *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.problems) < 20 {
		o.problems = append(o.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// opFailed counts one failed operation.
func (o *outcome) opFailed(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// metricValue is one metric in the printed result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf renders an outcome for the given metric table. Every metric of
// the table must be present: end-to-end metrics come from measurement, so
// a missing one is a bug, and per-layer runs fill layers they never
// entered with 0 before calling this.
func resultOf(o *outcome, defs []metricDef) (result, error) {
	r := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

// fillZero sets every metric of defs the run did not measure to 0.
func fillZero(values map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if _, ok := values[d.name]; !ok {
			values[d.name] = 0
		}
	}
}

// ratio is a/b, or 0 when b is 0 (a layer with no work has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printResult writes r as the run's final line.
func printResult(r result) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(buf))
	return err
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// line prints one human-readable progress line (never the final line).
func line(workload, format string, args ...any) {
	fmt.Printf("%-15s %s\n", workload, strings.TrimSpace(fmt.Sprintf(format, args...)))
}
