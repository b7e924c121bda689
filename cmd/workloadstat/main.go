// Command workloadstat characterizes the synthetic benchmark profiles: for
// each benchmark it records a trace and reports, from its replay,
// footprint, measured MPKI, read/write mix, structure count, the hotness
// skew and the recording's bytes per record — the quick sanity view for
// anyone tuning profiles against new calibration targets.
//
// Usage:
//
//	workloadstat                 # all benchmarks
//	workloadstat -bench mcf      # one benchmark
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hmem/internal/trace"
	"hmem/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark name (default: all)")
		records = flag.Int("records", 40000, "records to generate per benchmark")
		seed    = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()

	names := workload.Names()
	if *bench != "" {
		names = []string{*bench}
	}
	fmt.Printf("%-12s %6s %7s %7s %7s %8s %8s %7s %6s\n",
		"benchmark", "pages", "structs", "MPKI", "writes", "touched", "top1%acc", "gap", "B/rec")
	for _, name := range names {
		prof, err := workload.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "workloadstat:", err)
			os.Exit(1)
		}
		g, err := workload.NewGenerator(prof, 0, *records, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "workloadstat:", err)
			os.Exit(1)
		}
		recording := g.Record()
		replay := recording.Stream()
		counts := map[uint64]uint64{}
		var writes, insts, gaps uint64
		for {
			rec, err := replay.Next()
			if err != nil {
				break
			}
			counts[rec.Page()]++
			if rec.Kind == trace.Write {
				writes++
			}
			insts += uint64(rec.Gap) + 1
			gaps += uint64(rec.Gap)
		}
		// Hotness skew: share of accesses landing on the hottest 1% of
		// touched pages.
		perPage := make([]uint64, 0, len(counts))
		var total uint64
		for _, c := range counts {
			perPage = append(perPage, c)
			total += c
		}
		sort.Slice(perPage, func(i, j int) bool { return perPage[i] > perPage[j] })
		top := len(perPage) / 100
		if top < 1 {
			top = 1
		}
		var topAcc uint64
		for _, c := range perPage[:top] {
			topAcc += c
		}
		fmt.Printf("%-12s %6d %7d %7.1f %6.1f%% %8d %7.1f%% %7.1f %6.2f\n",
			name,
			prof.FootprintPages,
			len(g.Structures()),
			float64(*records)/float64(insts)*1000,
			100*float64(writes)/float64(*records),
			len(counts),
			100*float64(topAcc)/float64(total),
			float64(gaps)/float64(*records),
			float64(recording.Bytes())/float64(*records),
		)
	}
}
