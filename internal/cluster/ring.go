// Package cluster is the distribution layer that scales hmemd from one
// process to a coordinator/worker fleet. It is deliberately small and
// dependency-free (stdlib plus the repo's own exec/obs primitives): a
// consistent-hash ring for shard placement, a worker registry with
// TTL-based liveness, a shard descriptor codec, and a scheduler that
// dispatches shards over HTTP with peer-cache lookup, bounded
// retry-on-another-worker, and hedging of stragglers.
//
// The correctness contract mirrors the rest of the repository: every shard
// is a pure function of its descriptor, so placement, retries, duplicate
// (hedged) executions, and worker churn can change wall-clock time but
// never bytes. The merge order of shard results is fixed by shard index,
// making cluster output byte-identical to standalone output at any worker
// count.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per ring member. 128 keeps the
// per-worker load imbalance within a few percent for the 3-16 worker
// clusters this targets while the ring stays tiny (a few KB).
const DefaultReplicas = 128

// Ring is a consistent-hash ring with virtual nodes. Placement goals, in
// order: (1) a shard key maps to the same worker as long as that worker is
// alive, so repeated identical shards land where the memo already holds the
// result; (2) a join or leave remaps only ~1/N of the key space. Not safe
// for concurrent use — the Registry serializes access.
type Ring struct {
	replicas int
	hashes   []uint64          // sorted vnode positions
	owner    map[uint64]string // vnode position -> node
	vlabel   map[uint64]string // vnode position -> label (collision tie-break)
	nodes    map[string]struct{}
}

// NewRing returns an empty ring (replicas <= 0 uses DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{
		replicas: replicas,
		owner:    make(map[uint64]string),
		vlabel:   make(map[uint64]string),
		nodes:    make(map[string]struct{}),
	}
}

// hashKey maps a string to a ring position. sha256 rather than a fast
// non-cryptographic hash: placement happens once per shard (simulations are
// seconds), and uniformity is what bounds worker imbalance.
func hashKey(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		label := node + "#" + strconv.Itoa(i)
		h := hashKey(label)
		// On the (astronomically unlikely) vnode hash collision, keep the
		// lexicographically smaller label so ring state is independent of
		// insertion order.
		if cur, ok := r.vlabel[h]; ok && cur <= label {
			continue
		}
		if _, ok := r.vlabel[h]; !ok {
			r.hashes = append(r.hashes, h)
		}
		r.vlabel[h] = label
		r.owner[h] = node
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Remove deletes a node and its vnodes (idempotent).
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	keep := r.hashes[:0]
	for _, h := range r.hashes {
		if r.owner[h] == node {
			delete(r.owner, h)
			delete(r.vlabel, h)
			continue
		}
		keep = append(keep, h)
	}
	r.hashes = keep
	// A removed node may have shadowed another's colliding vnode; re-adding
	// the survivors restores those positions. Collisions are ~2^-64 per pair,
	// so this loop body effectively never runs, but determinism is cheap.
	for other := range r.nodes {
		missing := false
		for i := 0; i < r.replicas; i++ {
			if _, ok := r.vlabel[hashKey(other+"#"+strconv.Itoa(i))]; !ok {
				missing = true
				break
			}
		}
		if missing {
			delete(r.nodes, other)
			r.Add(other)
		}
	}
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}

// Owners walks clockwise from key's position and returns up to n distinct
// nodes: the owner first, then the natural failover/hedge candidates in
// deterministic order.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		node := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if _, ok := seen[node]; ok {
			continue
		}
		seen[node] = struct{}{}
		out = append(out, node)
	}
	return out
}
