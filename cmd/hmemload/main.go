// Command hmemload is hmemd's load and soak harness. It drives a running
// daemon (standalone or coordinator) with a deterministic mix of API
// operations — sync evaluations, job submit+poll round trips, NDJSON
// watches, job listings — paced to a target RPS or flat out, then reports
// latency quantiles, an error taxonomy, and shed counts, and gates the run
// against a declarative SLO spec.
//
// The i-th operation of a run is a pure function of (profile, seed, i), so a
// failing soak reproduces from its seed and a saved execution context
// resumes the exact schedule mid-stream.
//
// Usage:
//
//	hmemload -addr http://127.0.0.1:8080 -profile mixed -duration 30s \
//	    -rps 50 -slo examples/slo/smoke.json
//
// Exit codes: 0 on success, 1 when the SLO fails, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"hmem/internal/chaos"
	"hmem/internal/load"
	"hmem/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmemload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "hmemd base URL")
		profile  = fs.String("profile", "mixed", "operation mix (see -list-profiles)")
		listProf = fs.Bool("list-profiles", false, "list the built-in profiles and exit")
		rps      = fs.Float64("rps", 0, "target operations/second (0: closed loop)")
		workers  = fs.Int("workers", 4, "concurrent worker goroutines")
		duration = fs.Duration("duration", 30*time.Second, "run length (0: bounded by -max-ops)")
		maxOps   = fs.Uint64("max-ops", 0, "operation budget (0: bounded by -duration)")
		seed     = fs.Uint64("seed", 1, "run seed; same seed + profile replays the same op schedule")
		retries  = fs.Int("retries", 2, "client retries for idempotent calls")
		records  = fs.Int("records", 3000, "records/core attached to every request (0: server default)")
		trials   = fs.Int("trials", 2000, "fault trials attached to every request (0: server default)")

		sloPath    = fs.String("slo", "", "SLO spec JSON; violations exit 1")
		chaosPath  = fs.String("chaos", "", "chaos plan JSON injected client-side (selects the SLO's degraded budget)")
		saveCtx    = fs.String("save-context", "", "write the cumulative execution context here after the run")
		loadCtx    = fs.String("load-context", "", "resume from this execution context (its cursor continues the schedule)")
		metricsOut = fs.String("metrics-out", "", "write the hmemload_* metric families (Prometheus text) here")
		verbose    = fs.Bool("v", false, "also print the summary as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listProf {
		for _, p := range load.Profiles() {
			fmt.Fprintf(stdout, "%-8s %s\n", p.Name, p.Description)
		}
		return 0
	}
	prof, ok := load.ProfileByName(*profile)
	if !ok {
		fmt.Fprintf(stderr, "hmemload: unknown profile %q (try -list-profiles)\n", *profile)
		return 2
	}
	if *duration <= 0 && *maxOps == 0 {
		fmt.Fprintln(stderr, "hmemload: set -duration or -max-ops; an unbounded run never reports")
		return 2
	}

	cfg := load.Config{
		BaseURL: *addr, Profile: prof, Seed: *seed,
		Workers: *workers, TargetRPS: *rps,
		Duration: *duration, MaxOps: *maxOps,
		Retries: *retries, RecordsPerCore: *records, FaultTrials: *trials,
	}

	if *chaosPath != "" {
		f, err := os.Open(*chaosPath)
		if err != nil {
			fmt.Fprintf(stderr, "hmemload: %v\n", err)
			return 2
		}
		var plan chaos.Plan
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		err = dec.Decode(&plan)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "hmemload: parsing chaos plan: %v\n", err)
			return 2
		}
		// Only the HTTP seam reaches a remote daemon: a plan with nothing to
		// inject there would hold a healthy run to the degraded budget.
		if len(plan.HTTP) == 0 || len(plan.Trace)+len(plan.Tasks)+len(plan.Write) > 0 {
			fmt.Fprintf(stderr, "hmemload: chaos plan %s: hmemload injects only http faults; the plan must hold at least one and no other kind\n", *chaosPath)
			return 2
		}
		inj, err := chaos.New(plan)
		if err != nil {
			fmt.Fprintf(stderr, "hmemload: %v\n", err)
			return 2
		}
		cfg.Transport = inj.RoundTripper(nil)
	}

	var spec *load.SLO
	if *sloPath != "" {
		var err error
		if spec, err = load.LoadSLO(*sloPath); err != nil {
			fmt.Fprintf(stderr, "hmemload: %v\n", err)
			return 2
		}
	}

	ec := &load.ExecutionContext{}
	if *loadCtx != "" {
		loaded, err := load.LoadContext(*loadCtx)
		if err != nil {
			fmt.Fprintf(stderr, "hmemload: %v\n", err)
			return 2
		}
		if err := loaded.Check(prof.Name, *seed); err != nil {
			fmt.Fprintf(stderr, "hmemload: %v\n", err)
			return 2
		}
		ec = loaded
		cfg.StartOp = ec.NextOp
		fmt.Fprintf(stdout, "resuming at op %d (%d ops, %.0fs across %d segments so far)\n",
			ec.NextOp, ec.Ops, ec.ElapsedSeconds, ec.Segments)
	}

	reg := obs.NewRegistry()
	cfg.Registry = reg

	// SIGINT/SIGTERM end the segment gracefully: the summary still prints,
	// the context still saves, so a soak survives operator interruption.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sum, err := load.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hmemload: %v\n", err)
		return 2
	}

	printSummary(stdout, sum)
	if *verbose {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sum)
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = reg.RenderText(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "hmemload: writing metrics: %v\n", err)
			return 2
		}
	}
	if *saveCtx != "" {
		ec.Absorb(sum)
		if err := ec.Save(*saveCtx); err != nil {
			fmt.Fprintf(stderr, "hmemload: %v\n", err)
			return 2
		}
	}
	if spec == nil {
		return 0
	}
	budget := spec.Pick(*chaosPath != "")
	if budget != spec {
		fmt.Fprintln(stdout, "chaos active: holding the run to the degraded SLO budget")
	}
	if violations := budget.Evaluate(sum); len(violations) > 0 {
		fmt.Fprintf(stderr, "SLO FAILED (%d violations vs %s):\n", len(violations), *sloPath)
		for _, v := range violations {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		return 1
	}
	fmt.Fprintf(stdout, "SLO passed vs %s\n", *sloPath)
	return 0
}

// printSummary renders the human-facing run report.
func printSummary(w io.Writer, s *load.Summary) {
	fmt.Fprintf(w, "profile=%s seed=%d workers=%d ops=%d elapsed=%.1fs\n",
		s.Profile, s.Seed, s.Workers, s.Ops, s.ElapsedSeconds)
	if s.TargetRPS > 0 {
		fmt.Fprintf(w, "rps: achieved %.1f of %.1f target (%.0f%%)\n",
			s.AchievedRPS, s.TargetRPS, 100*s.AchievedRPS/s.TargetRPS)
	} else {
		fmt.Fprintf(w, "rps: %.1f (closed loop)\n", s.AchievedRPS)
	}
	fmt.Fprintf(w, "error rate: %.4f\n", s.ErrorRate())
	classes := make([]string, 0, len(s.Classes))
	for class := range s.Classes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "%-10s %8s %8s %9s %9s %9s %9s\n",
		"class", "reqs", "errs", "p50ms", "p90ms", "p99ms", "p999ms")
	for _, class := range classes {
		cs := s.Classes[class]
		var errs uint64
		for outcome, n := range cs.Outcomes {
			if load.IsError(outcome) {
				errs += n
			}
		}
		fmt.Fprintf(w, "%-10s %8d %8d %9.2f %9.2f %9.2f %9.2f\n",
			class, cs.Requests, errs, cs.P50MS, cs.P90MS, cs.P99MS, cs.P999MS)
	}
	if len(s.Shed) > 0 {
		fmt.Fprintf(w, "shed: %v\n", s.Shed)
	}
}
