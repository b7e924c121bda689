package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Kind names the unit of distributable work. Each kind is one of the
// engine's memoized building blocks — the same decomposition the in-process
// memo caches collapse on, so a shard executed anywhere hits (or fills) the
// same cache entry it would locally.
type Kind string

const (
	// KindProfile is a workload's DDR-only oracle profiling run.
	KindProfile Kind = "profile"
	// KindStatic is a static-policy placement run (workload × policy).
	KindStatic Kind = "static"
	// KindDynamic is a migration-mechanism run (workload × mechanism).
	KindDynamic Kind = "dynamic"
	// KindAnnotation is the annotation-guided placement run of §4.4.
	KindAnnotation Kind = "annotation"
	// KindFaultShard is one Monte-Carlo stratum shard of a tier's fault
	// study (faultsim.ShardJob): stratum K, shard Index, Trials trials.
	KindFaultShard Kind = "fault-shard"
)

// Shard describes one unit of work completely: any node holding the same
// binary and the same options reproduces its result bit for bit. Options
// carries the submitting engine's option patch verbatim; Digest is the
// canonical digest of the resolved options, checked by the executing node so
// a coordinator and a misconfigured worker can never silently mix results
// computed under different defaults.
type Shard struct {
	Kind    Kind            `json:"kind"`
	Digest  string          `json:"digest"`
	Options json.RawMessage `json:"options,omitempty"`

	// Workload and Policy select the simulation for profile/static/dynamic/
	// annotation kinds (Policy holds the mechanism name for dynamic runs).
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`

	// Tier, K, Index, Trials select a fault-study Monte-Carlo shard.
	Tier   int `json:"tier,omitempty"`
	K      int `json:"k,omitempty"`
	Index  int `json:"index,omitempty"`
	Trials int `json:"trials,omitempty"`
}

// Key returns the shard's canonical key: a hex digest, stable across
// processes. Ring placement hashes it, so a repeat shard lands on the node
// whose engine memo already holds the result.
func (s Shard) Key() string {
	var b strings.Builder
	b.WriteString(string(s.Kind))
	b.WriteByte('|')
	b.WriteString(s.Digest)
	b.WriteByte('|')
	b.WriteString(s.Workload)
	b.WriteByte('|')
	b.WriteString(s.Policy)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.Tier))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.K))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.Index))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.Trials))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// String renders a human-readable label for logs and spans.
func (s Shard) String() string {
	switch s.Kind {
	case KindFaultShard:
		return fmt.Sprintf("%s tier=%d k=%d shard=%d n=%d", s.Kind, s.Tier, s.K, s.Index, s.Trials)
	case KindProfile:
		return fmt.Sprintf("%s %s", s.Kind, s.Workload)
	default:
		return fmt.Sprintf("%s %s/%s", s.Kind, s.Workload, s.Policy)
	}
}

// Validate rejects descriptors that no node could execute.
func (s Shard) Validate() error {
	switch s.Kind {
	case KindProfile:
		if s.Workload == "" {
			return fmt.Errorf("cluster: %s shard needs a workload", s.Kind)
		}
	case KindStatic, KindDynamic, KindAnnotation:
		if s.Workload == "" {
			return fmt.Errorf("cluster: %s shard needs a workload", s.Kind)
		}
		if s.Policy == "" && s.Kind != KindAnnotation {
			return fmt.Errorf("cluster: %s shard needs a policy", s.Kind)
		}
	case KindFaultShard:
		if s.Trials <= 0 || s.K < 1 {
			return fmt.Errorf("cluster: fault shard needs positive trials and stratum, got n=%d k=%d", s.Trials, s.K)
		}
	default:
		return fmt.Errorf("cluster: unknown shard kind %q", s.Kind)
	}
	if s.Digest == "" {
		return fmt.Errorf("cluster: shard is missing its options digest")
	}
	return nil
}

// RegisterRequest is the worker -> coordinator registration/heartbeat body.
type RegisterRequest struct {
	// ID is the worker's stable identity (ring membership key).
	ID string `json:"id"`
	// URL is the worker's base URL as reachable from the coordinator.
	URL string `json:"url"`
	// Load is the worker's current in-flight shard count.
	Load int `json:"load"`
}

// Validate rejects unusable registrations.
func (r RegisterRequest) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("cluster: registration needs a worker id")
	}
	if !strings.HasPrefix(r.URL, "http://") && !strings.HasPrefix(r.URL, "https://") {
		return fmt.Errorf("cluster: registration needs an http(s) url, got %q", r.URL)
	}
	return nil
}
