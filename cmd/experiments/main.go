// Command experiments regenerates every table and figure of the paper's
// evaluation and writes them as text (stdout) and CSV files.
//
// Usage:
//
//	experiments                       # the full suite into ./results
//	experiments -only figure5,table3  # a subset
//	experiments -workloads astar,mix1 # restrict the workload set
//	experiments -parallel 8           # bound the worker pool (default NumCPU)
//	experiments -trace spans.ndjson   # dump tracing spans for the whole run
//
// Experiments run concurrently on a bounded worker pool; output order and
// content are independent of -parallel (the same seed yields byte-identical
// tables at any worker count).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hmem"
	"hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/obs"
	"hmem/internal/report"
)

func main() {
	var (
		outDir    = flag.String("out", "results", "directory for CSV output ('' = none)")
		only      = flag.String("only", "", "comma-separated experiment ids (default: all)")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all 14)")
		records   = flag.Int("records", 0, "trace records per core (0 = default)")
		scale     = flag.Int("scale", 0, "capacity scale divisor (0 = default 64)")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations (<=0 = NumCPU)")
		traceOut  = flag.String("trace", "", "write tracing spans as NDJSON to this file ('' = tracing off)")
		topology  = flag.String("topology", "", "memory topology by name (empty = hbm-ddr default)")
		topoFile  = flag.String("topology-file", "", "register a custom topology from a JSON file; it becomes the topology unless -topology is set")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *topoFile != "" {
		data, err := os.ReadFile(*topoFile)
		if err != nil {
			fatal(err)
		}
		name, err := hmem.RegisterTopologyJSON(data)
		if err != nil {
			fatal(err)
		}
		if *topology == "" {
			*topology = name
		}
	}
	opts.Topology = *topology
	if *records > 0 {
		opts.RecordsPerCore = *records
	}
	if *scale > 0 {
		opts.ScaleDiv = *scale
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	opts.Parallel = *parallel
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		fatal(err)
	}

	all := runner.All()
	want := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, exp := range all {
			known[exp.ID] = true
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fatal(fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(runner.ExperimentIDs(), ", ")))
			}
			want[id] = true
		}
	}

	var selected []experiments.Named
	for _, exp := range all {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		selected = append(selected, exp)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// Run every selected experiment on the shared pool, then print in paper
	// order. Experiments overlap (and share memoized simulations), so the
	// per-experiment wall times below overlap too and do not sum to the
	// suite's elapsed time.
	type outcome struct {
		table   *report.Table
		elapsed time.Duration
	}
	suiteStart := time.Now()
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracer = obs.NewTracer("suite", obs.NewNDJSON(f))
		ctx = obs.WithTracer(ctx, tracer)
	}
	outcomes, err := exec.Map(ctx, *parallel, len(selected), func(i int) (outcome, error) {
		start := time.Now()
		table, err := selected[i].Run(ctx)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", selected[i].ID, err)
		}
		return outcome{table: table, elapsed: time.Since(start)}, nil
	})
	if err != nil {
		fatal(err)
	}

	for i, exp := range selected {
		table := outcomes[i].table
		fmt.Println(table)
		fmt.Printf("(%s took %.1fs wall, overlapped)\n\n", exp.ID, outcomes[i].elapsed.Seconds())
		if *outDir != "" {
			f, err := os.Create(filepath.Join(*outDir, exp.ID+".csv"))
			if err != nil {
				fatal(err)
			}
			if err := table.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("suite: %d experiments in %.1fs with %d workers\n",
		len(selected), time.Since(suiteStart).Seconds(), exec.Workers(*parallel))
	cs := runner.CacheStats()
	fmt.Printf("memo cache: %d hits, %d misses (each miss is one simulation actually run)\n",
		cs.Hits, cs.Misses)
	if tracer != nil {
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "experiments: warning: %d spans dropped writing %s\n", d, *traceOut)
		}
		fmt.Printf("trace: spans written to %s\n", *traceOut)
	}
}

// fatal reports err and exits 1; a panic's error also prints the stack of
// the goroutine that panicked.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	var pe *exec.PanicError
	if errors.As(err, &pe) {
		fmt.Fprint(os.Stderr, pe.Stack)
	}
	os.Exit(1)
}
