package service_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hmem"
	"hmem/internal/chaos"
	"hmem/internal/load"
	"hmem/internal/service"
)

// TestClusterBrownoutBreakerAndRecovery is the brownout acceptance test: one
// of two workers turns straggler (injected latency far beyond the shard
// timeout) while evaluations and a brownout load run go through the
// coordinator, which must (1) open that worker's breaker, (2) keep every
// admitted evaluation byte-identical to standalone, (3) hold the load run to
// the SLO's degraded budget, (4) keep retry+hedge amplification bounded by
// total placements, and (5) re-close the breaker once the brownout ends.
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
	shrink := func(cfg service.Config) service.Config {
		cfg.Defaults.RecordsPerCore = 600
		cfg.Defaults.FaultTrials = 300
		return cfg
	}
	cfg := shrink(service.ClusterTestConfig(service.RoleStandalone))
	cfg.Role = ""
	_, standalone := service.NewTestServer(t, cfg)
	var want [][]byte
	for _, tc := range cases {
		want = append(want, service.EvaluateJSON(t, standalone, tc.workload, tc.policy))
	}

	inj, err := chaos.New(chaos.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	coordCfg := shrink(service.ClusterTestConfig(service.RoleCoordinator))
	// This test outlives the helper's 2s liveness TTL (brownout dispatches
	// burn their timeout one by one) and StartWorkers registers without a
	// heartbeat loop, so pin membership for the duration.
	coordCfg.Cluster.TTL = 10 * time.Minute
	coordCfg.Cluster.Transport = inj.RoundTripper(nil)
	coordCfg.Cluster.RequestTimeout = 2 * time.Second
	coordCfg.Cluster.StealAfter = time.Second
	coord, cc := service.NewTestServer(t, coordCfg)
	_, urls := service.StartWorkers(t, coord, 2, service.ClusterTestConfig(service.RoleWorker))

	// Brownout: w1 stays registered and alive but answers far slower than the
	// shard timeout allows. Every dispatch to it times out; w2 is healthy.
	inj.SetDelay(strings.TrimPrefix(urls[0], "http://"), 8*time.Second)

	for i, tc := range cases {
		got := service.EvaluateJSON(t, cc, tc.workload, tc.policy)
		if string(got) != string(want[i]) {
			t.Errorf("brownout: %s/%s differs from standalone\nstandalone: %s\ncluster:    %s",
				tc.workload, tc.policy, want[i], got)
		}
	}

	// Cache-hostile load through the limping cluster, held to the degraded
	// budget: polite sheds (Retry-After) are forgiven, unhinted failures
	// are not.
	spec, err := load.LoadSLO("../../examples/slo/brownout.json")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := load.ProfileByName("brownout")
	sum, err := load.Run(context.Background(), load.Config{
		BaseURL: cc.BaseURL, Profile: prof, Seed: 7, Workers: 4, MaxOps: 16,
		RecordsPerCore: 300, FaultTrials: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range spec.Pick(true).Evaluate(sum) {
		t.Errorf("brownout load run: %s", v)
	}

	m := service.ScrapeSeries(t, cc.BaseURL)
	placed, retries, hedges := m["hmemd_cluster_shards_placed_total"], m["hmemd_cluster_retries_total"], m["hmemd_hedges_total"]
	if m["hmemd_breaker_opens_total"] == 0 {
		t.Fatalf("brownout never opened w1's breaker (placed=%v retries=%v)", placed, retries)
	}
	if retries+hedges == 0 {
		t.Error("no shard was retried or hedged off the browned-out worker")
	}
	// Amplification: every hedge and retry is itself one placement, so the
	// duplicates can never exceed the primaries. (The acceptance bound is
	// hedges+retries <= 2x placed; this is the stronger structural bound.)
	if hedges+retries > placed {
		t.Errorf("amplification: hedges=%v + retries=%v > placed=%v", hedges, retries, placed)
	}
	if n := service.ScrapeSeries(t, urls[0])["hmemd_cluster_shards_executed_total"]; n != 0 {
		t.Errorf("browned-out worker completed %v shards inside the timeout, want 0", n)
	}

	// Recovery: end the brownout, wait out the breaker's 5 s quarantine
	// (in-flight brownout dispatches fail within one shard timeout of the
	// heal, well inside it), and keep offering fresh work. Each placement
	// whose owner is w1 becomes a half-open probe; two successful
	// probes in a row re-close the breaker. A unique fault_trials per
	// iteration defeats every cache.
	inj.Heal()
	time.Sleep(5100 * time.Millisecond)
	deadline := time.Now().Add(30 * time.Second)
	for fresh := 0; ; fresh++ {
		m = service.ScrapeSeries(t, cc.BaseURL)
		notClosed := notClosedBreakers(m)
		if len(notClosed) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed after the brownout ended: %v", notClosed)
		}
		workload := "astar"
		if fresh%2 == 1 {
			workload = "mix1"
		}
		_, err := cc.Evaluate(context.Background(), service.EvaluateRequest{
			Workload: workload,
			Policy:   "cc-migration",
			Options:  &service.OptionsPatch{FaultTrials: 100 + fresh},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if m["hmemd_breaker_closes_total"] == 0 {
		t.Error("breaker totals report no closes after recovery")
	}
	// The admission controller's families are live on the coordinator.
	for _, family := range []string{"hmemd_admission_cost_budget", "hmemd_admission_admitted_total", "hmemd_health_state"} {
		if _, ok := m[family]; !ok {
			t.Errorf("coordinator /metrics lacks %s", family)
		}
	}
}

// notClosedBreakers lists the hmemd_breaker_state series of a scrape whose
// breaker is open (1) or half-open (2).
func notClosedBreakers(m map[string]float64) []string {
	var out []string
	for k, v := range m {
		if strings.HasPrefix(k, "hmemd_breaker_state{") && v != 0 {
			out = append(out, fmt.Sprintf("%s=%g", k, v))
		}
	}
	return out
}
