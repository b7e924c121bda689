package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"hmem"
	"hmem/internal/breaker"
	"hmem/internal/chaos"
)

// TestClusterBrownoutBreakerAndRecovery is the brownout acceptance test: one
// of two workers turns straggler (injected latency far beyond the shard
// timeout), and the coordinator must (1) open that worker's breaker within the
// sliding window, (2) keep every admitted evaluation byte-identical to
// standalone, (3) keep retry+hedge amplification bounded by total placements,
// and (4) re-close the breaker within a probe cycle once the brownout ends.
func TestClusterBrownoutBreakerAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations across multiple in-process nodes")
	}
	cases := []struct {
		workload string
		policy   hmem.PolicyName
	}{
		{"astar", "cc-migration"},
		{"mix1", "balanced"},
	}
	// Shrink the simulations so a healthy shard execution fits the shard
	// timeout with room to spare even under -race on a loaded machine — the
	// browned-out worker must be the only one timing out. The standalone
	// reference and the coordinator must share these options byte-for-byte.
	shrink := func(cfg Config) Config {
		cfg.Defaults.RecordsPerCore = 600
		cfg.Defaults.FaultTrials = 300
		return cfg
	}
	cfg := shrink(clusterTestConfig(RoleStandalone))
	cfg.Role = ""
	_, standalone := newTestServer(t, cfg)
	var want [][]byte
	for _, tc := range cases {
		want = append(want, evaluateJSON(t, standalone, tc.workload, tc.policy))
	}

	sd := chaos.NewHostFaults(nil)
	coordCfg := shrink(clusterTestConfig(RoleCoordinator))
	// This test outlives the helper's 2s liveness TTL (brownout dispatches
	// burn their timeout one by one) and startWorkers registers without a
	// heartbeat loop, so pin membership for the duration.
	coordCfg.Cluster.TTL = 10 * time.Minute
	coordCfg.Cluster.Transport = sd
	coordCfg.Cluster.RequestTimeout = 2 * time.Second
	coordCfg.Cluster.StealAfter = time.Second
	coordCfg.Cluster.Breaker = breaker.Config{
		Window:         10,
		MinSamples:     3,
		FailureRatio:   0.5,
		OpenFor:        400 * time.Millisecond,
		ProbeBudget:    1,
		ProbeSuccesses: 1,
	}
	coord, cc := newTestServer(t, coordCfg)
	workerSvcs, urls := startWorkers(t, coord, 2)

	// Brownout: w1 stays registered and alive but answers far slower than the
	// shard timeout allows. Every dispatch to it times out; w2 is healthy.
	w1Host := strings.TrimPrefix(urls[0], "http://")
	sd.SetDelay(w1Host, 8*time.Second)

	for i, tc := range cases {
		got := evaluateJSON(t, cc, tc.workload, tc.policy)
		if string(got) != string(want[i]) {
			t.Errorf("brownout: %s/%s differs from standalone\nstandalone: %s\ncluster:    %s",
				tc.workload, tc.policy, want[i], got)
		}
	}

	stats := coord.cluster.sched.Stats()
	opens, _, _ := coord.cluster.breakers.Totals()
	if opens == 0 {
		t.Fatalf("brownout never opened w1's breaker (placed=%d retries=%d)", stats.Placed, stats.Retries)
	}
	if stats.Retries+stats.Hedges == 0 {
		t.Error("no shard was retried or hedged off the browned-out worker")
	}
	// Amplification: every hedge and retry is itself one placement, so the
	// duplicates can never exceed the primaries. (The acceptance bound is
	// hedges+retries <= 2x placed; this is the stronger structural bound.)
	if stats.Hedges+stats.Retries > stats.Placed {
		t.Errorf("amplification: hedges=%d + retries=%d > placed=%d",
			stats.Hedges, stats.Retries, stats.Placed)
	}
	if n := workerSvcs[0].cluster.executed.Load(); n != 0 {
		t.Errorf("browned-out worker completed %d shards inside the timeout, want 0", n)
	}

	// Recovery: end the brownout and keep offering fresh work. Each placement
	// whose ring owner is w1 becomes a half-open probe; with ProbeSuccesses=1
	// the first one that lands re-closes the breaker. In-flight brownout
	// dispatches trickle failures in for up to one shard timeout after the
	// clear (each reopening the quarantine), so the loop generates unlimited
	// fresh work — a unique fault_trials per iteration defeats every cache —
	// until the probes win.
	sd.Heal()
	time.Sleep(500 * time.Millisecond) // let the quarantine (OpenFor) lapse
	deadline := time.Now().Add(30 * time.Second)
	closed := func() bool {
		for _, st := range coord.cluster.breakers.States() {
			if st != breaker.Closed {
				return false
			}
		}
		return true
	}
	for fresh := 0; !closed(); fresh++ {
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed after the brownout ended: %v",
				coord.cluster.breakers.States())
		}
		workload := "astar"
		if fresh%2 == 1 {
			workload = "mix1"
		}
		_, err := cc.Evaluate(context.Background(), EvaluateRequest{
			Workload: workload,
			Policy:   "cc-migration",
			Options:  &OptionsPatch{FaultTrials: 100 + fresh},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, closes, _ := coord.cluster.breakers.Totals(); closes == 0 {
		t.Error("breaker totals report no closes after recovery")
	}
}
