// Command perfbench is hmem's benchmark: cold regenerations of the paper's
// figure families and a real hmemd under closed-loop traffic, with every
// output checked, plus traced runs that split each workload's time across
// the repository's modules. README.md describes the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it and hmemd:
//
//	bash perfbench/run.sh -workload serve-warm -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -workload all -runs 5 -out change.json
//	bash perfbench/run.sh -compare parent.json change.json
//	bash perfbench/run.sh -loc
//
// The last line of a run is one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones, or per-layer ones with -trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloadOrder lists the workloads in the order -workload all runs them.
var workloadOrder = []string{"figures-static", "figures-dynamic", "serve-warm", "serve-cold"}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	records  int // trace records per core; 0 = the workload's default
	hmemd    string
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func runOnce(cfg runConfig) (*outcome, error) {
	_, figures := families[cfg.workload]
	switch {
	case figures && cfg.trace:
		return traceFigures(cfg)
	case figures:
		return runFigures(cfg)
	case cfg.trace:
		return traceServe(cfg)
	default:
		return runServe(cfg)
	}
}

// samplesFile holds every run's metrics, per workload: the input of
// -compare.
type samplesFile struct {
	Trace     bool                        `json:"trace"`
	Workloads map[string]*workloadSamples `json:"workloads"`
}

type workloadSamples struct {
	Seeds   []uint64             `json:"seeds"`
	Metrics map[string][]float64 `json:"metrics"`
}

func main() {
	var (
		wl       = flag.String("workload", "", "figures-static, figures-dynamic, serve-warm, serve-cold, or all")
		seed     = flag.Uint64("seed", 0x9AFE2018, "input seed: the simulation seed of the figures workloads, the operation-schedule seed of the serve workloads")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1: make a traced run and print per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...; with more than one, print each metric's median and quartiles")
		out      = flag.String("out", "", "write every run's metrics to this JSON file, the input of -compare")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: parent.json change.json")
		loc      = flag.Bool("loc", false, "print non-test Go line counts per package")
		root     = flag.String("root", ".", "repository root")
		hmemd    = flag.String("hmemd", "", "hmemd binary (default <root>/.bench_build/hmemd)")
		records  = flag.Int("records", 0, "trace records per core (0 = the workload's default)")
		traceOut = flag.String("trace-out", "", "with -trace 1, write each workload's spans (of its last run) to this JSON file")
		child    = flag.String("child", "", "internal: run as a figures child process in this mode")
	)
	flag.Parse()
	var err error
	ok := true
	switch {
	case *child != "":
		err = childMain(*child, *wl, *seed, *records)
	case *loc:
		err = printLOC(*root)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files: parent.json change.json")
			break
		}
		ok, err = runCompare(filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	default:
		if *hmemd == "" {
			*hmemd = filepath.Join(*root, ".bench_build", "hmemd")
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, records: *records, hmemd: *hmemd}
		ok, err = runWorkloads(cfg, *wl, *runs, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkloads runs the named workload (or all of them) runs times and
// prints the result line; ok is false when a check failed.
func runWorkloads(cfg runConfig, name string, runs int, outPath, traceOut string) (ok bool, err error) {
	names := []string{name}
	_, fig := families[name]
	_, srv := serveWorkloads[name]
	switch {
	case name == "all":
		names = workloadOrder
	case !fig && !srv:
		return false, fmt.Errorf("unknown workload %q (valid: %s, all)", name, strings.Join(workloadOrder, ", "))
	}
	if runs < 1 {
		return false, errors.New("-runs must be at least 1")
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	file := samplesFile{Trace: cfg.trace, Workloads: map[string]*workloadSamples{}}
	results := map[string]result{}
	spans := map[string][]span{}
	for _, n := range names {
		ws := &workloadSamples{Metrics: map[string][]float64{}}
		agg := result{Correct: true, Metrics: map[string]metricValue{}}
		for i := 0; i < runs; i++ {
			c := cfg
			c.workload, c.seed = n, cfg.seed+uint64(i)
			o, err := runOnce(c)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", n, c.seed, err)
			}
			r, err := resultOf(o, defs)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", n, c.seed, err)
			}
			spans[n] = o.spans
			agg.Correct = agg.Correct && r.Correct
			agg.Attempted += r.Attempted
			agg.Failed += r.Failed
			ws.Seeds = append(ws.Seeds, c.seed)
			for _, d := range defs {
				ws.Metrics[d.name] = append(ws.Metrics[d.name], r.Metrics[d.name].Value)
			}
		}
		for _, d := range defs {
			xs := ws.Metrics[d.name]
			agg.Metrics[d.name] = metricValue{Value: median(xs), Unit: d.unit}
			if runs > 1 {
				q1, q3 := quartiles(xs)
				line(n, "%-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% n=%d %s",
					d.name, median(xs), q1, q3, 100*spread(xs), len(xs), d.unit)
			}
		}
		file.Workloads[n] = ws
		results[n] = agg
	}
	if outPath != "" {
		if err := writeJSON(outPath, file); err != nil {
			return false, err
		}
	}
	if traceOut != "" && cfg.trace {
		if err := writeJSON(traceOut, spans); err != nil {
			return false, err
		}
	}
	if len(names) == 1 {
		r := results[names[0]]
		return r.Correct, printResult(r)
	}
	// All workloads: one line per workload, then their conjunction.
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		r := results[n]
		buf, err := json.Marshal(r)
		if err != nil {
			return false, err
		}
		line(n, "%s", buf)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for m, v := range r.Metrics {
			all.Metrics[n+"/"+m] = v
		}
	}
	return all.Correct, printResult(all)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runCompare judges a change's runs against the parent's, per workload and
// end-to-end metric, with the bounds of BENCHMARK.json. ok is false when
// any pair regressed.
func runCompare(specPath, parentPath, changePath string) (ok bool, err error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	var parent, change samplesFile
	for path, dst := range map[string]*samplesFile{parentPath: &parent, changePath: &change} {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return false, fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	ok = true
	for _, n := range workloadOrder {
		p, c := parent.Workloads[n], change.Workloads[n]
		if p == nil || c == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			pv, cv := p.Metrics[m.Name], c.Metrics[m.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			verdict := judge(pv, cv, m.Better == "lower", m.Bound)
			ok = ok && verdict != verdictRegressed
			line(n, "%-15s parent %s  change %s  bound %.0f%%  %s",
				m.Name, describeRuns(pv), describeRuns(cv), 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func describeRuns(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(xs), q1, q3, len(xs))
}

// printLOC prints the non-test Go line count of every package directory
// under root, and their total.
func printLOC(root string) error {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		counts[dir] += strings.Count(string(data), "\n")
		return nil
	})
	if err != nil {
		return err
	}
	dirs := make([]string, 0, len(counts))
	total := 0
	for d, n := range counts {
		dirs = append(dirs, d)
		total += n
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		fmt.Printf("%6d %s\n", counts[d], d)
	}
	fmt.Printf("%6d total\n", total)
	return nil
}
