package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hmem/internal/exec"
	"hmem/internal/report"
)

// Regenerate after an intended change to a table with:
//
//	go test ./internal/experiments -run TestFigureGoldens -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.csv from the current drivers")

// goldenOptions is the reduced configuration the figure goldens pin: the
// three-workload panel at 4000 records per core, every other option at its
// default.
func goldenOptions() Options {
	opts := DefaultOptions()
	opts.Workloads = []string{"astar", "mcf", "mix1"}
	opts.RecordsPerCore = 4000
	return opts
}

// TestFigureGoldens runs every driver of Runner.All on one runner at
// goldenOptions and compares each table's CSV with
// testdata/golden/<id>.csv, byte for byte.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment driver")
	}
	r := mustRunner(t, goldenOptions())
	all := r.All()
	tables, err := exec.Map(context.Background(), r.Options().Parallel, len(all), func(i int) (*report.Table, error) {
		return all[i].Run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, exp := range all {
		var got bytes.Buffer
		if err := tables[i].WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, exp.ID+".csv")
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", exp.ID, path, got.Bytes(), want)
		}
	}
}
