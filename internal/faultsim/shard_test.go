package faultsim

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestShardAPIEquivalentToRunCtx pins the cluster contract: running the
// shard plan by hand — in any order — and combining the tallies in job order
// must reproduce RunCtx bit for bit. This is what lets shards execute on
// remote workers.
func TestShardAPIEquivalentToRunCtx(t *testing.T) {
	for _, s := range []*Study{
		NewStudy(HBMSecDed(), SridharanTransient(), 0x4B1D),
		timedStudy(HBMSecDed(), 0x4B1D),
	} {
		for _, trials := range []int{100, 2048, 5000} {
			want, err := s.Run(trials)
			if err != nil {
				t.Fatalf("Run(%d): %v", trials, err)
			}

			jobs := s.Shards(trials)
			tallies := make([]ShardTally, len(jobs))
			// Execute in reverse to prove merge order comes from the plan,
			// not from execution order.
			for i := len(jobs) - 1; i >= 0; i-- {
				tallies[i] = s.RunShard(jobs[i])
			}
			got, err := s.Combine(jobs, tallies, trials)
			if err != nil {
				t.Fatalf("Combine(%d): %v", trials, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("timed=%v trials=%d: shard-API result differs from RunCtx\n got %+v\nwant %+v", s.timed(), trials, got, want)
			}
		}
	}
}

// TestShardPlanShape checks stratification: MaxFaults strata, each covering
// the full trial budget in shardTrials-sized pieces with an exact remainder.
func TestShardPlanShape(t *testing.T) {
	s := NewStudy(DDR3ChipKill(), SridharanTransient(), 1)
	trials := 2*shardTrials + 7
	jobs := s.Shards(trials)
	perStratum := 3
	if len(jobs) != s.MaxFaults*perStratum {
		t.Fatalf("got %d shards, want %d", len(jobs), s.MaxFaults*perStratum)
	}
	for k := 1; k <= s.MaxFaults; k++ {
		sum := 0
		for _, j := range jobs {
			if j.K == k {
				sum += j.N
			}
		}
		if sum != trials {
			t.Errorf("stratum %d covers %d trials, want %d", k, sum, trials)
		}
	}
}

// TestShardTallyJSONRoundTrip proves a tally survives the cluster wire
// format unchanged — outcome maps use integer-typed keys, which encoding/json
// quotes and restores exactly.
func TestShardTallyJSONRoundTrip(t *testing.T) {
	s := NewStudy(HBMSecDed(), SridharanTransient(), 99)
	tally := s.RunShard(ShardJob{K: 1, Shard: 0, N: 500})
	buf, err := json.Marshal(tally)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ShardTally
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(tally, back) {
		t.Errorf("round trip changed tally:\n got %+v\nwant %+v", back, tally)
	}
}

// TestCombineRejectsMismatch: a dropped or duplicated shard tally must be an
// error, never a silently skewed estimate.
func TestCombineRejectsMismatch(t *testing.T) {
	s := NewStudy(HBMSecDed(), SridharanTransient(), 7)
	jobs := s.Shards(100)
	if _, err := s.Combine(jobs, make([]ShardTally, len(jobs)-1), 100); err == nil {
		t.Error("short tally slice: want error, got nil")
	}
	if _, err := s.Combine([]ShardJob{{K: 99, Shard: 0, N: 1}}, make([]ShardTally, 1), 100); err == nil {
		t.Error("out-of-range stratum: want error, got nil")
	}
}
