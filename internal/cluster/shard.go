package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Shard is one unit of distributable work in its envelope: any node
// holding the same binary and the same options reproduces its result bit
// for bit. Work is the work itself, opaque to this package (the engine's
// JSON block descriptor). Options carries the submitting engine's option
// patch verbatim; Digest is the canonical digest of the resolved options,
// checked by the executing node so a coordinator and a misconfigured worker
// can never silently mix results computed under different defaults.
type Shard struct {
	Digest  string          `json:"digest"`
	Options json.RawMessage `json:"options,omitempty"`
	Work    json.RawMessage `json:"work"`
}

// Key returns the shard's canonical key: a hex digest of the options digest
// and the work bytes, stable across processes. Ring placement hashes it, so
// a repeat shard lands on the node whose engine memo already holds the
// result.
func (s Shard) Key() string {
	h := sha256.New()
	h.Write([]byte(s.Digest))
	h.Write([]byte{'|'})
	h.Write(s.Work)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Validate rejects envelopes that no node could execute; the work itself is
// validated by the node that decodes it.
func (s Shard) Validate() error {
	if s.Digest == "" {
		return fmt.Errorf("cluster: shard is missing its options digest")
	}
	if len(s.Work) == 0 {
		return fmt.Errorf("cluster: shard carries no work")
	}
	return nil
}

// RegisterRequest is the worker -> coordinator registration/heartbeat body.
type RegisterRequest struct {
	// ID is the worker's stable identity (its placement key).
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
