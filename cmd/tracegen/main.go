// Command tracegen generates a synthetic benchmark trace and writes it in
// the binary trace format. The generators emit post-LLC (memory-level)
// traffic directly, so no cache filter runs.
//
// Usage:
//
//	tracegen -bench mcf -records 100000 -out mcf.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"hmem/internal/trace"
	"hmem/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "astar", "benchmark profile name")
		records = flag.Int("records", 100000, "records to generate")
		out     = flag.String("out", "", "output file (default <bench>.trc)")
		seed    = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()

	prof, err := workload.Lookup(*bench)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = *bench + ".trc"
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}

	w, err := trace.NewWriter(f)
	if err != nil {
		fatal(err)
	}

	g, err := workload.NewGenerator(prof, 0, *records, *seed)
	if err != nil {
		fatal(err)
	}
	recs, err := trace.Collect(g, 0)
	if err != nil {
		fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	// A deferred, unchecked Close would swallow ENOSPC and hand the sim a
	// truncated trace; report it and exit non-zero instead.
	if err := f.Close(); err != nil {
		fatal(fmt.Errorf("closing %s: %w", path, err))
	}
	fmt.Printf("wrote %d records to %s\n", w.Count(), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
