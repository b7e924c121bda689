// Service quickstart: talk to a running hmemd with the typed client — list
// the catalog, evaluate the same request twice to show that the server
// simulates once, and run one async experiment job with progress events.
//
// Start a server first (small options keep this snappy):
//
//	go run ./cmd/hmemd -addr 127.0.0.1:8080 -records 3000 -fault-trials 2000 &
//	go run ./examples/service_quickstart -addr http://127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"hmem"
	"hmem/internal/service"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "hmemd base URL")
	flag.Parse()

	// Bounded retry-with-backoff on idempotent calls: a daemon restarting
	// mid-deploy shows up as a blip, not a failure.
	c := &service.Client{BaseURL: *addr, Retries: 3, Backoff: 200 * time.Millisecond}
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		log.Fatalf("server not healthy at %s: %v", *addr, err)
	}
	workloads, _, err := c.Workloads(ctx)
	if err != nil {
		log.Fatal(err)
	}
	policies, err := c.Policies(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server offers %d workloads and %d policies\n\n", len(workloads), len(policies))

	// The same request twice: the second answer comes from the engine's
	// memoized simulations — same bytes, no second simulation.
	req := service.EvaluateRequest{Workload: "astar", Policy: hmem.PolicyWr2Ratio}
	for i, label := range []string{"cold (simulates)", "warm (cached)"} {
		start := time.Now()
		res, err := c.Evaluate(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("evaluate #%d %-17s %.1fs  IPC %.2fx  SER %.1fx vs DDR-only\n",
			i+1, label, time.Since(start).Seconds(), res.IPCvsDDROnly, res.SERvsDDROnly)
	}
	fmt.Println()

	// Async job: regenerate a paper table, streaming state transitions.
	table, err := c.RunJob(ctx, service.JobRequest{Experiment: "hwcost"}, func(ev service.JobEvent) {
		fmt.Printf("job %s: %s\n", ev.JobID, ev.State)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", table)
}
