package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hmem/internal/core"
	hexec "hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/migration"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/trace"
)

// figureProcs is the CPU budget of a cold figures run: Parallel and
// GOMAXPROCS both, so the workload has the same shape on any host.
const figureProcs = 2

// setupProbes is how many children a figures run starts back to back only
// to time set-up, before any sample: a set-up timed right after a heavy
// sample pays for the memory that sample is still returning to the kernel.
const setupProbes = 10

// family is one figures workload: the drivers it regenerates, and the
// building blocks those drivers need, which a traced run executes one at a
// time before it runs the drivers against the warm memo.
type family struct {
	figures []string
	static  []core.Policy
	dynamic []mechanism
}

// mechanism is one migration building block under the memo name the
// figure drivers use for it (internal/experiments/dynamic.go), so that
// the drivers hit the block the traced run computed.
type mechanism struct {
	name  string
	warm  core.Policy
	build func(o experiments.Options) sim.Migrator
}

var families = map[string]family{
	"figures-static": {
		figures: []string{"figure5", "figure7", "figure8", "figure10", "figure11"},
		static: []core.Policy{core.PerfFocused{}, core.ReliabilityFocused{}, core.Balanced{},
			core.WrRatio{}, core.Wr2Ratio{}},
	},
	"figures-dynamic": {
		figures: []string{"figure12", "figure14", "figure15"},
		static:  []core.Policy{core.PerfFocused{}},
		dynamic: []mechanism{
			{"perf-migration", core.PerfFocused{}, func(o experiments.Options) sim.Migrator {
				return migration.NewPerf(o.FCIntervalCycles)
			}},
			{"fc-reliability", core.Balanced{}, func(o experiments.Options) sim.Migrator {
				return migration.NewFullCounter(o.FCIntervalCycles)
			}},
			{"cc-reliability", core.Balanced{}, func(o experiments.Options) sim.Migrator {
				return migration.NewCrossCounter(o.MEAIntervalCycles, int(o.FCIntervalCycles/o.MEAIntervalCycles), 32)
			}},
		},
	},
}

// digestsJSON holds the recorded digests of each family's figure CSVs at
// the default trace length, for the published seed and the held-out one.
//
//go:embed digests.json
var digestsJSON []byte

type recordedDigests struct {
	RecordsPerCore int                          `json:"records_per_core"`
	Digests        map[string]map[string]string `json:"digests"`
}

// expectedDigest returns the recorded digest for a run, if there is one.
func expectedDigest(workload string, seed uint64, records int) (string, bool) {
	var rd recordedDigests
	if err := json.Unmarshal(digestsJSON, &rd); err != nil || rd.RecordsPerCore != records {
		return "", false
	}
	if seed == 0 {
		seed = experiments.DefaultOptions().Seed
	}
	d, ok := rd.Digests[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// childReport is what a figures child prints after its ready line.
type childReport struct {
	Digest  string            `json:"digest,omitempty"`
	Figures map[string]string `json:"figures,omitempty"`
	Invalid []string          `json:"invalid,omitempty"`
	Traced  *tracedFigures    `json:"traced,omitempty"`
	Spans   []span            `json:"spans,omitempty"`
}

// tracedFigures is the ledger of a traced figures child, in nanoseconds and
// counts.
type tracedFigures struct {
	WallNS, FitsNS, BlocksNS, DriverNS, GenNS, DecideNS   int64
	Records, TraceOpens, CoalesceHits, SimRuns, SimCycles int64
	DecideCalls, OnAccessCalls, PagesMoved, FaultTrials   int64
	MemoHits, MemoMisses, DriverMisses                    int64
}

// childRun is one child process: its set-up time (start until the runner
// is built), wall and CPU time, peak RSS, and report.
type childRun struct {
	setup, wall, cpu time.Duration
	rssMB            float64
	report           childReport
}

func figureRecords(cfg runConfig) int {
	if cfg.records > 0 {
		return cfg.records
	}
	return experiments.DefaultOptions().RecordsPerCore
}

// childProcs is a child's CPU budget. A traced child gets one CPU and one
// worker: its wall time is then a ledger of CPU time that can be split
// across layers and held against the untraced child's CPU time.
func childProcs(mode string) int {
	if mode == "traced" {
		return 1
	}
	return figureProcs
}

// spawnChild runs this binary in child mode and measures it.
func spawnChild(cfg runConfig, mode string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-records", strconv.Itoa(figureRecords(cfg)))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs(mode)))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	br := bufio.NewReader(stdout)
	ready, readErr := br.ReadString('\n')
	setup := time.Since(start)
	rest, restErr := io.ReadAll(br)
	waitErr := cmd.Wait()
	wall := time.Since(start)
	switch {
	case waitErr != nil:
		return childRun{}, fmt.Errorf("%s child: %w", mode, waitErr)
	case readErr != nil || ready != "ready\n":
		return childRun{}, fmt.Errorf("%s child: no ready line (%q, %v)", mode, ready, readErr)
	case restErr != nil:
		return childRun{}, fmt.Errorf("%s child: reading report: %w", mode, restErr)
	}
	c := childRun{setup: setup, wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(rest, &c.report); err != nil {
		return childRun{}, fmt.Errorf("%s child: parsing report: %w", mode, err)
	}
	return c, nil
}

// sampleProblems checks one cold or traced child's figures: table shapes,
// the recorded digest when the run has one, and agreement with the run's
// first sample (the same seed must give the same bytes).
func sampleProblems(cfg runConfig, rep childReport, first string) []string {
	probs := append([]string(nil), rep.Invalid...)
	if want, ok := expectedDigest(cfg.workload, cfg.seed, figureRecords(cfg)); ok && rep.Digest != want {
		probs = append(probs, fmt.Sprintf("figure digest %s differs from the recorded %s", rep.Digest, want))
	}
	if first != "" && rep.Digest != first {
		probs = append(probs, fmt.Sprintf("figure digest %s differs from this run's first sample %s", rep.Digest, first))
	}
	return probs
}

// runFigures measures cold regenerations of a figure family: one child
// process per sample, as many samples as fit in the run's seconds.
func runFigures(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var setups, walls, cpus []float64
	for i := 0; i < setupProbes; i++ {
		c, err := spawnChild(cfg, "setup")
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	var first string
	peak := 0.0
	start := time.Now()
	for {
		c, err := spawnChild(cfg, "cold")
		o.attempted++
		if err != nil {
			o.opFailed("%v", err)
			break
		}
		if probs := sampleProblems(cfg, c.report, first); len(probs) > 0 {
			o.failed++
			for _, p := range probs {
				o.problem("%s", p)
			}
		}
		if first == "" {
			first = c.report.Digest
		}
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
		peak = math.Max(peak, c.rssMB)
		line(cfg.workload, "sample %d: wall %.3fs cpu %.3fs rss %.0fMB set-up %.1fms digest %.12s",
			len(walls), c.wall.Seconds(), c.cpu.Seconds(), c.rssMB, 1e3*c.setup.Seconds(), c.report.Digest)
		if time.Since(start).Seconds()+median(walls) > cfg.seconds {
			break
		}
	}
	if len(walls) == 0 {
		return nil, errors.New("no cold sample completed")
	}
	p50, _ := percentile(sortedCopy(walls), 500)
	o.values["setup_s"] = median(setups)
	o.values["p50_ms"] = 1e3 * p50
	o.values["throughput_ops"] = float64(len(walls)) / sum(walls)
	o.values["cpu_ms_per_op"] = 1e3 * sum(cpus) / float64(len(cpus))
	o.values["peak_rss_mb"] = peak
	lo, hi := extremes(setups)
	line(cfg.workload, "%d samples; set-up %.2fms (median of %d, %.2f-%.2f); digest %s",
		len(walls), 1e3*median(setups), len(setups), 1e3*lo, 1e3*hi, first)
	return o, nil
}

// traceFigures runs one untraced cold sample and one traced child, checks
// that both produce the same figures, and attributes the traced child's
// time to layers.
func traceFigures(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	cold, err := spawnChild(cfg, "cold")
	o.attempted++
	if err != nil {
		return nil, err
	}
	if probs := sampleProblems(cfg, cold.report, ""); len(probs) > 0 {
		o.opFailed("%s", strings.Join(probs, "; "))
	}
	traced, err := spawnChild(cfg, "traced")
	o.attempted++
	if err != nil {
		return nil, err
	}
	t := traced.report.Traced
	if t == nil {
		return nil, errors.New("traced child sent no ledger")
	}
	if probs := sampleProblems(cfg, traced.report, cold.report.Digest); len(probs) > 0 {
		o.opFailed("traced run: %s", strings.Join(probs, "; "))
	}
	if t.DriverMisses != 0 {
		o.problem("driver phase of the traced run missed the memo %d times; the building blocks did not cover the drivers", t.DriverMisses)
	}
	wall := float64(t.WallNS)
	simNS := float64(t.BlocksNS - t.GenNS - t.DecideNS)
	records := float64(t.Records)
	v := o.values
	v["workload.generate_frac"] = float64(t.GenNS) / wall
	v["workload.ns_per_record"] = ratio(float64(t.GenNS), records)
	v["workload.records"] = records
	v["trace.opens"] = float64(t.TraceOpens)
	v["trace.coalesce_hits"] = float64(t.CoalesceHits)
	v["sim.run_frac"] = simNS / wall
	v["sim.ns_per_record"] = ratio(simNS, records)
	v["sim.runs"] = float64(t.SimRuns)
	v["sim.cycles"] = float64(t.SimCycles)
	v["migration.decide_frac"] = float64(t.DecideNS) / wall
	v["migration.decide_calls"] = float64(t.DecideCalls)
	v["migration.onaccess_calls"] = float64(t.OnAccessCalls)
	v["migration.pages_moved"] = float64(t.PagesMoved)
	v["faultsim.study_frac"] = float64(t.FitsNS) / wall
	v["faultsim.trials"] = float64(t.FaultTrials)
	v["experiments.driver_frac"] = float64(t.DriverNS) / wall
	v["exec.memo_hits"] = float64(t.MemoHits)
	v["exec.memo_misses"] = float64(t.MemoMisses)
	v["exec.memo_hit_ratio"] = ratio(float64(t.MemoHits), float64(t.MemoHits+t.MemoMisses))
	v["unattributed_frac"] = 1 - float64(t.BlocksNS+t.FitsNS+t.DriverNS)/wall
	v["tracing_overhead_frac"] = wall/float64(cold.cpu) - 1
	fillZero(v, perLayer)
	o.spans = traced.report.Spans
	line(cfg.workload, "untraced: wall %.3fs cpu %.3fs; traced (1 CPU): wall %.3fs, %d blocks, driver-phase memo misses %d",
		cold.wall.Seconds(), cold.cpu.Seconds(), wall/1e9, t.SimRuns, t.DriverMisses)
	return o, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// childMain is the body of a figures child process. It builds the runner,
// prints "ready" (the end of set-up), does the mode's work and prints its
// report as JSON.
func childMain(mode, workload string, seed uint64, records int) error {
	fam, ok := families[workload]
	if !ok {
		return fmt.Errorf("unknown figures workload %q", workload)
	}
	opts := experiments.DefaultOptions()
	opts.Seed = seed
	opts.RecordsPerCore = records
	opts.Parallel = childProcs(mode)
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}
	var tr *tracedRun
	if mode == "traced" {
		tr = newTracedRun(r)
	}
	fmt.Println("ready")
	ctx := context.Background()
	var rep childReport
	switch mode {
	case "setup":
	case "cold":
		tables, err := hexec.Map(ctx, opts.Parallel, len(fam.figures), func(i int) (*report.Table, error) {
			return runDriver(ctx, r, fam.figures[i])
		})
		if err != nil {
			return err
		}
		rep = tableReport(fam.figures, tables, len(r.Workloads()))
	case "traced":
		if rep, err = tr.run(ctx, fam); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func runDriver(ctx context.Context, r *experiments.Runner, id string) (*report.Table, error) {
	n, ok := r.ByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return n.Run(ctx)
}

// tableReport digests each figure's CSV and checks its shape.
func tableReport(ids []string, tables []*report.Table, workloads int) childReport {
	rep := childReport{Figures: map[string]string{}}
	all := sha256.New()
	for i, t := range tables {
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			rep.Invalid = append(rep.Invalid, fmt.Sprintf("%s: %v", ids[i], err))
		}
		sum := sha256.Sum256(buf.Bytes())
		rep.Figures[ids[i]] = hex.EncodeToString(sum[:])
		fmt.Fprintf(all, "%s\n", ids[i])
		all.Write(buf.Bytes())
		rep.Invalid = append(rep.Invalid, tableProblems(ids[i], t, workloads)...)
	}
	rep.Digest = hex.EncodeToString(all.Sum(nil))
	return rep
}

// tableProblems checks a figure table's shape: one row per workload plus
// the average, and every cell after the row name a finite, non-negative
// ratio ("1.63x") or count. Only the average row may leave a cell empty
// (the page counts it does not sum).
func tableProblems(id string, t *report.Table, workloads int) []string {
	var probs []string
	if len(t.Rows) != workloads+1 {
		probs = append(probs, fmt.Sprintf("%s: %d rows, want %d", id, len(t.Rows), workloads+1))
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Columns) {
			probs = append(probs, fmt.Sprintf("%s: row %q has %d cells, want %d", id, row[0], len(row), len(t.Columns)))
			continue
		}
		for _, cell := range row[1:] {
			if cell == "" && row[0] == "average" {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				probs = append(probs, fmt.Sprintf("%s: row %q has cell %q", id, row[0], cell))
			}
		}
	}
	return probs
}

// tracedRun executes a family's building blocks one at a time, timing
// each, then runs the drivers, which must now only hit the memo.
type tracedRun struct {
	r     *experiments.Runner
	trace traceLayer
	mig   migrationLayer
	start time.Time
	spans []span
	led   tracedFigures
}

func newTracedRun(r *experiments.Runner) *tracedRun {
	tr := &tracedRun{r: r}
	r.SetTraceWrap(func(_ string, s trace.Stream) trace.Stream { return tr.trace.wrap(s) })
	return tr
}

// timed runs fn as a span under the traced run's root span.
func (tr *tracedRun) timed(name string, fn func() error) (int64, error) {
	s := int64(time.Since(tr.start))
	err := fn()
	e := int64(time.Since(tr.start))
	tr.spans = append(tr.spans, span{Name: name, Parent: "run", StartNS: s, EndNS: e})
	return e - s, err
}

// block times one memoized building block; each is one simulation.
func (tr *tracedRun) block(name string, fn func() (sim.Result, error)) error {
	d, err := tr.timed(name, func() error {
		res, err := fn()
		tr.led.SimCycles += res.Cycles
		tr.led.PagesMoved += int64(res.PagesMigrated)
		return err
	})
	tr.led.BlocksNS += d
	tr.led.SimRuns++
	return err
}

func (tr *tracedRun) run(ctx context.Context, fam family) (childReport, error) {
	r, opts := tr.r, tr.r.Options()
	tr.start = time.Now()
	d, err := tr.timed("faultsim.study", func() error {
		_, err := r.Fits(ctx)
		return err
	})
	if err != nil {
		return childReport{}, err
	}
	tr.led.FitsNS = d
	for tier := range r.Topology().Tiers {
		study, ok, err := r.StudyForTier(tier)
		if err != nil {
			return childReport{}, err
		}
		if ok {
			for _, j := range study.Shards(opts.FaultTrials) {
				tr.led.FaultTrials += int64(j.N)
			}
		}
	}
	for _, spec := range r.Workloads() {
		err := tr.block("experiments.profile/"+spec.Name, func() (sim.Result, error) {
			p, err := r.ProfileOf(ctx, spec)
			if err != nil {
				return sim.Result{}, err
			}
			return p.Result, nil
		})
		for _, pol := range fam.static {
			if err == nil {
				err = tr.block("experiments.static/"+spec.Name+"/"+pol.Name(), func() (sim.Result, error) {
					return r.RunStatic(ctx, spec, pol)
				})
			}
		}
		for _, m := range fam.dynamic {
			if err == nil {
				err = tr.block("experiments.dynamic/"+spec.Name+"/"+m.name, func() (sim.Result, error) {
					var tm *timedMigrator
					res, err := r.RunDynamic(ctx, spec, m.name, func() sim.Migrator {
						tm = tr.mig.wrap(m.build(opts))
						return tm
					}, m.warm)
					if tm != nil {
						tm.flush()
					}
					return res, err
				})
			}
		}
		if err != nil {
			return childReport{}, err
		}
	}
	before := r.CacheStats()
	tables := make([]*report.Table, len(fam.figures))
	for i, id := range fam.figures {
		d, err := tr.timed("experiments.driver/"+id, func() (err error) {
			tables[i], err = runDriver(ctx, r, id)
			return err
		})
		if err != nil {
			return childReport{}, err
		}
		tr.led.DriverNS += d
	}
	after := r.CacheStats()
	tr.led.WallNS = int64(time.Since(tr.start))
	tr.spans = append(tr.spans, span{Name: "run", EndNS: tr.led.WallNS})

	ts := r.TraceStats()
	tr.led.GenNS = tr.trace.genNS.Load()
	tr.led.Records = tr.trace.records.Load()
	tr.led.TraceOpens = int64(ts.Opens)
	tr.led.CoalesceHits = int64(ts.CoalesceHits)
	tr.led.DecideNS = tr.mig.decideNS.Load()
	tr.led.DecideCalls = tr.mig.decideCalls.Load()
	tr.led.OnAccessCalls = tr.mig.onAccessCalls.Load()
	tr.led.MemoHits = int64(after.Hits)
	tr.led.MemoMisses = int64(after.Misses)
	tr.led.DriverMisses = int64(after.Misses - before.Misses)

	rep := tableReport(fam.figures, tables, len(r.Workloads()))
	rep.Traced = &tr.led
	rep.Spans = tr.spans
	return rep, nil
}
