package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmem/internal/load"
)

// TestClusterSmoke runs a coordinator and two workers from the real binary,
// the only place the heartbeat loop and drain-time deregistration run:
//
//   - a standalone node answers the reference bytes for astar/cc-migration;
//   - both workers register, w1 at the URL it passes as -advertise and w2
//     at the default, and the coordinator (with -shard-timeout set)
//     answers the same bytes, exports hmemd_cluster_workers 2, and placed
//     shards that the workers executed;
//   - the cluster load profile, through the coordinator, meets the cluster
//     smoke SLO and places more shards, and w1 executed shards at its
//     advertised URL;
//   - on SIGTERM both workers exit 0 and leave the ring, and the coordinator
//     alone still answers the reference bytes, then drains with exit 0.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the hmemd binary")
	}
	dir := t.TempDir()
	bin := buildHmemd(t, dir)
	ctx := context.Background()

	ref := startHmemd(t, bin, filepath.Join(dir, "ref"))
	want := evaluateAstar(t, ref)
	ref.drain(t)

	coord := startHmemd(t, bin, filepath.Join(dir, "coord"), "-role", "coordinator",
		"-steal-after", "5m", "-shard-timeout", "5m")
	// w1 advertises a localhost URL of its own; w2 keeps the default
	// http://127.0.0.1:<port>.
	wantURL := map[string]string{}
	var workers []*hmemdProc
	for _, id := range []string{"w1", "w2"} {
		addr := freeAddr(t)
		args := []string{"-role", "worker", "-coordinator", coord.c.BaseURL, "-worker-id", id}
		wantURL[id] = "http://" + addr
		if id == "w1" {
			_, port, _ := net.SplitHostPort(addr)
			wantURL[id] = "http://localhost:" + port
			args = append(args, "-advertise", wantURL[id])
		}
		workers = append(workers, startHmemdAt(t, bin, filepath.Join(dir, id), addr, args...))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws, err := coord.c.ClusterWorkers(ctx)
		if err == nil && len(ws) == 2 {
			for _, w := range ws {
				if w.URL != wantURL[w.ID] {
					t.Errorf("worker %s registered at %s, want %s", w.ID, w.URL, wantURL[w.ID])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered: %v (err %v)", ws, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if got := evaluateAstar(t, coord); got != want {
		t.Fatalf("coordinator differs from standalone\nstandalone: %s\ncluster:    %s", want, got)
	}
	coord.requireMetric(t, "hmemd_cluster_workers 2")
	placed := coord.metric(t, "hmemd_cluster_shards_placed_total")
	if placed == 0 {
		t.Fatal("the coordinator placed no shards")
	}
	if executed := workers[0].metric(t, "hmemd_cluster_shards_executed_total") +
		workers[1].metric(t, "hmemd_cluster_shards_executed_total"); executed < 1 {
		t.Fatal("no worker executed any shard")
	}

	spec, err := load.LoadSLO("../../examples/slo/cluster.json")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := load.ProfileByName("cluster")
	sum, err := load.Run(ctx, load.Config{
		BaseURL: coord.c.BaseURL, Profile: prof, Seed: 7, Workers: 4, MaxOps: 40,
		RecordsPerCore: 300, FaultTrials: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range spec.Evaluate(sum) {
		t.Errorf("cluster load run: %s", v)
	}
	// The load really flowed through the ring, not the local fallback.
	if after := coord.metric(t, "hmemd_cluster_shards_placed_total"); after <= placed {
		t.Errorf("the cluster load run placed no shards (%v before, %v after)", placed, after)
	}
	// The coordinator reached w1 through its advertised URL.
	if executed := workers[0].metric(t, "hmemd_cluster_shards_executed_total"); executed < 1 {
		t.Error("w1 executed no shard at its advertised URL")
	}

	for _, w := range workers {
		w.drain(t)
	}
	if ws, err := coord.c.ClusterWorkers(ctx); err != nil || len(ws) != 0 {
		t.Fatalf("after the workers drained: workers %v, err %v; want none", ws, err)
	}
	// A coordinator with no workers computes locally, or answers from its
	// result memo — with the same bytes either way.
	if got := evaluateAstar(t, coord); got != want {
		t.Fatalf("coordinator alone differs from standalone\nstandalone: %s\nalone:      %s", want, got)
	}
	coord.drain(t)
}

// evaluateAstar POSTs the astar/cc-migration evaluation, whose fault study
// the coordinator shards, and returns the raw response body.
func evaluateAstar(t *testing.T, d *hmemdProc) string {
	t.Helper()
	resp, err := http.Post(d.c.BaseURL+"/v1/evaluate", "application/json",
		strings.NewReader(`{"workload":"astar","policy":"cc-migration"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}
