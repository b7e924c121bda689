package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hmem"
	"hmem/internal/core"
	"hmem/internal/experiments"
	"hmem/internal/sim"
)

// TestEngineMetricsMatchResults pins the engine-level families (hmem_*) to
// the answers they describe: absent before any evaluation, the workload IPC
// gauges equal to each answer's IPC, the tier wear gauges equal to a
// dram-nvm answer's Endurance, and the simulation counters equal to the
// sums over the same blocks simulated by in-process runners.
func TestEngineMetricsMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := tinyConfig()
	_, c := newTestServer(t, cfg)
	ctx := context.Background()

	for name := range scrapeSeries(t, c.BaseURL) {
		if strings.HasPrefix(name, "hmem_") {
			t.Fatalf("scrape before any evaluation shows %s", name)
		}
	}

	ipcSeries := func(r hmem.Result) string {
		return fmt.Sprintf(`hmem_workload_ipc{workload=%q,policy=%q}`, r.Workload, r.Policy)
	}
	eval, err := c.Evaluate(ctx, EvaluateRequest{Workload: "astar", Policy: hmem.PolicyCCMigration})
	if err != nil {
		t.Fatal(err)
	}
	series := scrapeSeries(t, c.BaseURL)
	if got := series[ipcSeries(eval)]; got != eval.IPC {
		t.Fatalf("%s = %v, want the answer's IPC %v", ipcSeries(eval), got, eval.IPC)
	}
	cmp, err := c.Compare(ctx, CompareRequest{Workload: "astar",
		Policies: []hmem.PolicyName{hmem.PolicyDDROnly, hmem.PolicyBalanced, hmem.PolicyCCMigration}})
	if err != nil {
		t.Fatal(err)
	}
	series = scrapeSeries(t, c.BaseURL)
	for _, r := range cmp {
		if got := series[ipcSeries(r)]; got != r.IPC {
			t.Fatalf("%s = %v, want the answer's IPC %v", ipcSeries(r), got, r.IPC)
		}
	}
	for name := range series {
		if strings.HasPrefix(name, "hmem_tier_") {
			t.Fatalf("hbm-ddr answers export %s", name)
		}
	}

	nvm, err := c.Evaluate(ctx, EvaluateRequest{Workload: "astar", Policy: hmem.PolicyCCMigration,
		Options: &OptionsPatch{Topology: core.DRAMNVMTopologyName}})
	if err != nil {
		t.Fatal(err)
	}
	if len(nvm.Endurance) == 0 {
		t.Fatal("dram-nvm answer carries no endurance")
	}
	series = scrapeSeries(t, c.BaseURL)
	for _, e := range nvm.Endurance {
		labels := fmt.Sprintf(`{workload=%q,policy=%q,tier=%q}`, nvm.Workload, nvm.Policy, e.Name)
		if got := series["hmem_tier_writes_total"+labels]; got != float64(e.TotalWrites) {
			t.Fatalf("hmem_tier_writes_total%s = %v, want %d", labels, got, e.TotalWrites)
		}
		if got := series["hmem_tier_exhausted_frames"+labels]; got != float64(e.ExhaustedFrames) {
			t.Fatalf("hmem_tier_exhausted_frames%s = %v, want %d", labels, got, e.ExhaustedFrames)
		}
	}

	// The same blocks, simulated by in-process runners: every answer above
	// read the workload's profile, and the hbm-ddr ones the balanced static
	// run and the Cross-Counter run.
	var runs, epochs, migrated float64
	sum := func(opts hmem.Options, blocks ...experiments.Block) {
		t.Helper()
		r, err := experiments.NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			raw, err := r.Execute(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			var res sim.Result
			if b.Kind == experiments.BlockProfile {
				var p experiments.Profile
				err = json.Unmarshal(raw, &p)
				res = p.Result
			} else {
				err = json.Unmarshal(raw, &res)
			}
			if err != nil {
				t.Fatal(err)
			}
			runs++
			epochs += float64(len(res.Intervals))
			migrated += float64(res.PagesMigrated)
		}
	}
	profile := experiments.Block{Kind: experiments.BlockProfile, Workload: "astar"}
	cc := experiments.Block{Kind: experiments.BlockDynamic, Workload: "astar", Name: "cc-reliability"}
	sum(cfg.Defaults, profile, cc, experiments.Block{Kind: experiments.BlockStatic, Workload: "astar", Name: "balanced"})
	nvmOpts := cfg.Defaults
	nvmOpts.Topology = core.DRAMNVMTopologyName
	sum(nvmOpts, profile, cc)

	series = scrapeSeries(t, c.BaseURL)
	for name, want := range map[string]float64{
		"hmem_sim_runs_total":           runs,
		"hmem_sim_epochs_total":         epochs,
		"hmem_sim_pages_migrated_total": migrated,
	} {
		if got := series[name]; got != want {
			t.Errorf("%s = %v, want %v from the in-process runners", name, got, want)
		}
	}
	if epochs == 0 || migrated == 0 {
		t.Fatalf("the Cross-Counter runs crossed %v intervals and moved %v pages; the pin needs both", epochs, migrated)
	}
}

// TestWarmAnswerExportAllocatesNothing: once an answer's series exist,
// setting its gauges again (IPC and tier wear) allocates nothing.
func TestWarmAnswerExportAllocatesNothing(t *testing.T) {
	svc, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	res := hmem.Result{Workload: "astar", Policy: hmem.PolicyCCMigration, IPC: 0.5,
		Endurance: []sim.TierEndurance{{Name: "NVM", TotalWrites: 7, ExhaustedFrames: 1}}}
	svc.met.exportResult(&res)
	if allocs := testing.AllocsPerRun(100, func() { svc.met.exportResult(&res) }); allocs != 0 {
		t.Fatalf("warm gauge export allocates %.1f per answer, want 0", allocs)
	}
}

// BenchmarkWarmAnswerExport times a warm answer as hmemd pays for it: a
// memoized Evaluate plus the evaluation gauges it sets on the service's
// registry.
func BenchmarkWarmAnswerExport(b *testing.B) {
	svc, err := New(tinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	en, err := svc.acquireEngine(nil)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.releaseEngine(en)
	ctx := context.Background()
	for _, p := range []hmem.PolicyName{hmem.PolicyBalanced, hmem.PolicyCCMigration} {
		if _, err := en.runner.Evaluate(ctx, "astar", p); err != nil {
			b.Fatal(err)
		}
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := en.runner.Evaluate(ctx, "astar", p)
				if err != nil {
					b.Fatal(err)
				}
				svc.met.exportResult(&res)
			}
		})
	}
}
