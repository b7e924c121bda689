// Command hmemd serves the placement-advisory HTTP API: workload × policy
// evaluations, policy comparisons, and async experiment jobs, all backed by
// a process-lifetime result cache (identical requests — concurrent or
// repeated — perform one simulation).
//
// Usage:
//
//	hmemd                                  # listen on :8080, default options
//	hmemd -addr 127.0.0.1:9090 -records 8000 -workers 2
//
// Clustering (-role): a coordinator shards expensive work — experiment
// grids and fault-study Monte-Carlo strata — across registered workers by
// consistent hashing, retrying shards from dead or straggling workers
// elsewhere; results merge deterministically, so cluster output is
// byte-identical to standalone at any worker count. Workers self-register
// and heartbeat:
//
//	hmemd -role coordinator -addr :8080
//	hmemd -role worker -addr :8081 -coordinator http://127.0.0.1:8080
//	hmemd -role worker -addr :8082 -coordinator http://127.0.0.1:8080
//
// Endpoints:
//
//	GET  /v1/workloads    GET  /v1/policies    GET  /v1/experiments
//	GET  /v1/topologies
//	POST /v1/evaluate     POST /v1/compare
//	POST /v1/jobs         GET  /v1/jobs        GET /v1/jobs/{id}[?watch=1]
//	GET  /healthz         GET  /metrics        GET /v1/jobs/{id}/trace
//	POST /v1/cluster/register    POST /v1/cluster/deregister
//	GET  /v1/cluster/workers     POST /v1/cluster/shard
//
// -debug-addr starts a SECOND listener (keep it private — bind localhost)
// serving net/http/pprof under /debug/pprof/ plus a /debug/runtime JSON
// snapshot; -trace-log appends every tracing span to an NDJSON file.
//
// SIGINT/SIGTERM drain gracefully: new work is refused with 503 while
// in-flight requests and queued jobs finish (bounded by -drain-timeout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hmem"
	"hmem/internal/chaos"
	"hmem/internal/cluster"
	"hmem/internal/obs"
	"hmem/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		records      = flag.Int("records", 0, "default trace records per core (0 = package default)")
		scale        = flag.Int("scale", 0, "default capacity scale divisor (0 = default 64)")
		seed         = flag.Uint64("seed", 0, "default simulation seed (0 = package default)")
		faultTrials  = flag.Int("fault-trials", 0, "default Monte-Carlo trials per stratum (0 = package default)")
		parallel     = flag.Int("parallel", 0, "max concurrent simulations per engine (<=0 = NumCPU)")
		queueDepth   = flag.Int("queue-depth", 0, "async job queue bound (0 = default 16)")
		jobWorkers   = flag.Int("job-workers", 1, "goroutines draining the job queue")
		maxBody      = flag.Int64("max-body-bytes", 0, "request body limit (0 = default 1 MiB)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain jobs on shutdown")
		journalDir   = flag.String("journal-dir", "", "directory for the durable job journal (empty = jobs do not survive restarts)")
		debugAddr    = flag.String("debug-addr", "", "listen address for pprof + /debug/runtime (empty = disabled; bind localhost, it is unauthenticated)")
		traceLog     = flag.String("trace-log", "", "append tracing spans as NDJSON to this file (empty = ring buffer only)")
		traceBuffer  = flag.Int("trace-buffer", 0, "spans kept in memory for GET /v1/jobs/{id}/trace (0 = default 4096)")
		topology     = flag.String("topology", "", "default memory topology by name (empty = hbm-ddr; see GET /v1/topologies)")
		topologyFile = flag.String("topology-file", "", "register a custom topology from a JSON file; it becomes the default unless -topology is set")

		role         = flag.String("role", "standalone", "cluster role: standalone, coordinator, or worker")
		coordinator  = flag.String("coordinator", "", "coordinator base URL a worker registers with (required for -role worker)")
		advertise    = flag.String("advertise", "", "URL the coordinator should reach this worker at (default http://127.0.0.1:<port of -addr>)")
		workerID     = flag.String("worker-id", "", "stable worker identity in the placement ring (default <hostname>:<port>)")
		heartbeat    = flag.Duration("heartbeat", 0, "worker heartbeat interval (0 = a third of the coordinator's TTL)")
		clusterTTL   = flag.Duration("cluster-ttl", 0, "coordinator: drop workers silent for this long (0 = 10s)")
		stealAfter   = flag.Duration("steal-after", 0, "coordinator: longest wait before hedging a straggling shard onto another worker; the delay adapts to 2x the p90 shard latency below it (0 = 2m)")
		shardTimeout = flag.Duration("shard-timeout", 0, "coordinator: bound one shard dispatch (0 = 10m); timeouts count against the worker's circuit breaker")
		admitBudget  = flag.Float64("admission-budget", 0, "in-flight cost ceiling in default-evaluation units before shedding (0 = 4 x GOMAXPROCS, min 32)")
		chaosHTTP    = flag.String("chaos-http", "", "JSON chaos plan whose HTTP faults wrap this server's handler (testing only)")
	)
	flag.Parse()

	if *topologyFile != "" {
		data, err := os.ReadFile(*topologyFile)
		if err != nil {
			log.Fatalf("hmemd: reading topology file: %v", err)
		}
		name, err := hmem.RegisterTopologyJSON(data)
		if err != nil {
			log.Fatalf("hmemd: %v", err)
		}
		log.Printf("hmemd: registered topology %q from %s", name, *topologyFile)
		if *topology == "" {
			*topology = name
		}
	}

	cfg := service.Config{
		Defaults: hmem.Options{
			RecordsPerCore: *records,
			ScaleDiv:       *scale,
			Seed:           *seed,
			FaultTrials:    *faultTrials,
			Parallel:       *parallel,
			Topology:       *topology,
		},
		MaxBodyBytes: *maxBody,
		QueueDepth:   *queueDepth,
		JobWorkers:   *jobWorkers,
		JournalDir:   *journalDir,
		TraceBuffer:  *traceBuffer,
		Role:         *role,
		Admission:    service.AdmissionConfig{Budget: *admitBudget},
		Cluster: service.ClusterConfig{
			TTL:            *clusterTTL,
			StealAfter:     *stealAfter,
			RequestTimeout: *shardTimeout,
			Logf:           log.Printf,
		},
	}
	if *role == "worker" && *coordinator == "" {
		log.Fatal("hmemd: -role worker requires -coordinator")
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("hmemd: opening trace log: %v", err)
		}
		defer f.Close()
		cfg.SpanWriter = f
	}
	svc, err := service.New(cfg)
	if err != nil {
		log.Fatalf("hmemd: %v", err)
	}
	if *journalDir != "" {
		rec := svc.Recovery()
		log.Printf("hmemd: journal replay: restored %d jobs (%d terminal, %d requeued, %d failed as poison); compacted %d records, skipped %d corrupt lines",
			rec.Restored, rec.Terminal, rec.Requeued, rec.PoisonFailed,
			rec.CompactedRecords, rec.CorruptLines)
		if rec.CorruptLines > 1 {
			log.Printf("hmemd: warning: journal replay skipped %d unparsable lines (more than a single torn tail) — recovery may be lossy", rec.CorruptLines)
		}
	}

	// An optional chaos plan wraps the whole API surface — the brownout
	// smoke boots a worker behind injected latency and watches the
	// coordinator quarantine it.
	handler := svc.Handler()
	if *chaosHTTP != "" {
		data, err := os.ReadFile(*chaosHTTP)
		if err != nil {
			log.Fatalf("hmemd: reading chaos plan: %v", err)
		}
		var plan chaos.Plan
		if err := json.Unmarshal(data, &plan); err != nil {
			log.Fatalf("hmemd: parsing chaos plan %s: %v", *chaosHTTP, err)
		}
		inj, err := chaos.New(plan)
		if err != nil {
			log.Fatalf("hmemd: %v", err)
		}
		handler = inj.Handler(handler)
		log.Printf("hmemd: chaos plan %s active (%d http faults)", *chaosHTTP, len(plan.HTTP))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM) // before /healthz answers: a stop right after start must still drain
	errCh := make(chan error, 1)
	go func() {
		log.Printf("hmemd: listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	// The debug listener is separate from the API on purpose: pprof must
	// never be reachable through whatever exposure the API gets, and a
	// wedged API server must not take the profiler down with it.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbgSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("hmemd: debug endpoints (pprof, /debug/runtime) on %s", *debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("hmemd: debug listener: %v", err)
			}
		}()
	}

	// A worker announces itself to the coordinator and keeps heartbeating;
	// registration is idempotent (a heartbeat IS a re-registration), so a
	// restarted coordinator re-learns its fleet within one interval.
	var stopHeartbeat context.CancelFunc
	var heartbeatDone chan struct{}
	if *role == "worker" {
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = host + *addr
		}
		selfURL := *advertise
		if selfURL == "" {
			selfURL = "http://127.0.0.1" + ensurePort(*addr)
		}
		hbCtx, cancel := context.WithCancel(context.Background())
		stopHeartbeat = cancel
		heartbeatDone = make(chan struct{})
		go heartbeatLoop(hbCtx, heartbeatDone, svc, &service.Client{BaseURL: *coordinator}, id, selfURL, *heartbeat)
	}

	select {
	case err := <-errCh:
		log.Fatalf("hmemd: %v", err)
	case got := <-sig:
		log.Printf("hmemd: %s received, draining (up to %s)", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if stopHeartbeat != nil {
		// Leave the ring first so the coordinator stops placing new shards
		// here while we drain the ones in flight.
		stopHeartbeat()
		<-heartbeatDone
	}
	// Drain order matters: stop the job queue first (new submissions 503),
	// then let the HTTP server finish in-flight requests — including
	// watchers streaming those draining jobs.
	svcErr := svc.Shutdown(ctx)
	httpErr := srv.Shutdown(ctx)
	if dbgSrv != nil {
		_ = dbgSrv.Shutdown(ctx)
	}
	if svcErr != nil || (httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed)) {
		fmt.Fprintf(os.Stderr, "hmemd: unclean shutdown: jobs=%v http=%v\n", svcErr, httpErr)
		os.Exit(1)
	}
	log.Printf("hmemd: drained cleanly")
}

// ensurePort turns a listen address like ":8081" into a dialable host:port
// suffix (addresses already carrying a host pass through).
func ensurePort(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return addr
	}
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[i:]
	}
	return ":" + addr
}

// heartbeatLoop registers the worker, then re-registers every interval until
// ctx is cancelled, deregistering on the way out (clean drain; a crash is
// instead collected by the coordinator's TTL sweep).
func heartbeatLoop(ctx context.Context, done chan<- struct{}, svc *service.Service, c *service.Client, id, selfURL string, interval time.Duration) {
	defer close(done)
	register := func() time.Duration {
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		ttl, err := c.ClusterRegister(callCtx, cluster.RegisterRequest{ID: id, URL: selfURL, Load: svc.ClusterLoad()})
		if err != nil {
			if ctx.Err() == nil {
				log.Printf("hmemd: cluster registration failed (will retry): %v", err)
			}
			return 0
		}
		return ttl
	}
	ttl := register()
	if ttl > 0 {
		log.Printf("hmemd: registered with coordinator as %q (ttl %s)", id, ttl)
	}
	every := interval
	if every <= 0 {
		if ttl <= 0 {
			ttl = cluster.DefaultTTL
		}
		every = ttl / 3
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			depCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := c.ClusterDeregister(depCtx, id); err != nil {
				log.Printf("hmemd: deregistration failed (coordinator TTL will collect us): %v", err)
			}
			return
		case <-t.C:
			register()
		}
	}
}
