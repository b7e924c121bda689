// Package load is hmemd's load and soak harness. It drives a running daemon
// (standalone or coordinator) with a deterministic stream of mixed API
// operations, measures what came back — latency quantiles, error taxonomy,
// shed counts, achieved throughput — and gates the result against a
// declarative SLO spec.
//
// Determinism is the design center: the i-th operation of a run is a pure
// function of (profile, seed, i), independent of worker count, pacing, and
// wall-clock. Pacing and concurrency decide only WHEN an operation fires,
// never WHAT it is, so a failing soak reproduces from its seed alone and a
// single-worker run replays the exact request sequence end to end.
package load

import (
	"hmem"
	"hmem/internal/xrand"
)

// Operation classes — one per endpoint family the harness exercises.
const (
	// ClassEvaluate is a synchronous POST /v1/evaluate.
	ClassEvaluate = "evaluate"
	// ClassCompare is a synchronous POST /v1/compare (on a coordinator this
	// fans out across the worker ring, so cluster profiles lean on it).
	ClassCompare = "compare"
	// ClassSubmit is POST /v1/jobs followed by polling GET /v1/jobs/{id}
	// until the job terminates — the async round trip.
	ClassSubmit = "submit"
	// ClassWatch is POST /v1/jobs followed by streaming the NDJSON watch
	// until the terminal event.
	ClassWatch = "watch"
	// ClassList is GET /v1/jobs with a limit/offset page.
	ClassList = "list"
	// ClassBatch is POST /v1/batch: one pipelined request carrying a
	// same-workload multi-policy item set, streamed back as NDJSON. On the
	// server the items coalesce onto one trace plan.
	ClassBatch = "batch"
)

// Outcome taxonomy. Everything except OutcomeOK and OutcomeCanceled counts
// as an error; canceled marks operations cut off by the run deadline, which
// says nothing about the server.
const (
	OutcomeOK      = "ok"
	OutcomeHTTP429 = "http_429"
	OutcomeHTTP503 = "http_503"
	// OutcomeShedHinted is a 429/503 carrying a parseable Retry-After — the
	// server shed the request honestly, telling the client when to return.
	// It still counts as an error (IsError), but the unhinted error rate —
	// what brownout SLOs gate on — excludes it: clean shedding under overload
	// is the service working as designed.
	OutcomeShedHinted = "shed_hinted"
	OutcomeHTTP4xx    = "http_4xx"
	OutcomeHTTP5xx    = "http_5xx"
	OutcomeFailed     = "failed" // job reached a terminal non-done state
	OutcomeTransport  = "transport"
	OutcomeCanceled   = "canceled"
)

// IsError reports whether an outcome counts against the error budget.
func IsError(outcome string) bool {
	return outcome != OutcomeOK && outcome != OutcomeCanceled
}

// classWeight is one entry of a profile's operation mix.
type classWeight struct {
	class  string
	weight uint64
}

// Profile is a named operation mix. CacheHostile makes every operation carry
// a unique options seed, so the server's memoized simulations never hit and
// each request pays the full simulation.
type Profile struct {
	Name         string
	Description  string
	mix          []classWeight
	CacheHostile bool
}

// Profiles lists the built-in profiles in a fixed order.
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "sync",
			Description: "sync-heavy: mostly /v1/evaluate with some /v1/compare",
			mix:         []classWeight{{ClassEvaluate, 70}, {ClassCompare, 25}, {ClassList, 5}},
		},
		{
			Name:        "jobs",
			Description: "job-heavy: submit+poll with listing pressure",
			mix:         []classWeight{{ClassSubmit, 55}, {ClassList, 25}, {ClassEvaluate, 20}},
		},
		{
			Name:        "watch",
			Description: "watch-streaming: NDJSON watches plus background sync load",
			mix:         []classWeight{{ClassWatch, 50}, {ClassSubmit, 15}, {ClassEvaluate, 35}},
		},
		{
			Name:         "hostile",
			Description:  "cache-hostile: unique option seeds defeat the simulation memo",
			mix:          []classWeight{{ClassEvaluate, 80}, {ClassCompare, 20}},
			CacheHostile: true,
		},
		{
			Name: "brownout",
			Description: "overload probe: cache-hostile sync pressure with job submissions, " +
				"for driving a daemon into degraded/shedding states",
			mix:          []classWeight{{ClassEvaluate, 60}, {ClassCompare, 30}, {ClassSubmit, 10}},
			CacheHostile: true,
		},
		{
			Name:        "cluster",
			Description: "cluster-shard: compare-heavy fan-out across a worker ring",
			mix:         []classWeight{{ClassCompare, 60}, {ClassEvaluate, 40}},
		},
		{
			Name: "batch",
			Description: "batch-pipelined: same-workload multi-policy /v1/batch " +
				"with background sync load",
			mix: []classWeight{{ClassBatch, 70}, {ClassEvaluate, 20}, {ClassList, 10}},
		},
		{
			Name:        "mixed",
			Description: "a bit of everything — the default smoke profile",
			mix: []classWeight{
				{ClassEvaluate, 30}, {ClassCompare, 15}, {ClassSubmit, 15},
				{ClassWatch, 10}, {ClassList, 15}, {ClassBatch, 15},
			},
		},
	}
}

// ProfileByName finds a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Op is one scripted operation. Only the fields its Class uses are set.
type Op struct {
	Index uint64
	Class string

	// Workload/Policy/Policies parameterize evaluate and compare.
	Workload string
	Policy   hmem.PolicyName
	Policies []hmem.PolicyName
	// Seed is the options seed attached to the request (cache-friendly
	// profiles draw it from a small set so the server's memo cache earns
	// hits; hostile profiles make it unique per op).
	Seed uint64
	// Experiment parameterizes submit and watch.
	Experiment string
	// Limit/Offset parameterize list.
	Limit  int
	Offset int
}

// Derive salts, spread apart so op scripting, client jitter, and anything
// future never share a stream.
const (
	opSalt     = 0x10AD
	jitterSalt = 0x10AD0001
)

// cacheFriendlySeeds bounds the options-seed variety of non-hostile
// profiles: four variants per workload×policy keeps the server's result
// cache warm while still exercising distinct simulations.
const cacheFriendlySeeds = 4

// OpAt returns operation i of a run — a pure function of (profile, seed, i).
// Every random draw comes from a stream derived from exactly those three
// values, so the schedule is identical whatever concurrency executes it.
func OpAt(p Profile, seed, index uint64) Op {
	rng := xrand.New(xrand.Derive(seed, opSalt, index))
	op := Op{Index: index, Class: pickClass(rng, p.mix)}
	if p.CacheHostile {
		op.Seed = index + 1 // unique per op: no two requests share a digest
	} else {
		op.Seed = 1 + rng.Uint64n(cacheFriendlySeeds)
	}
	workloads := hmem.Workloads()
	policies := hmem.Policies()
	switch op.Class {
	case ClassEvaluate:
		op.Workload = workloads[rng.Intn(len(workloads))]
		op.Policy = policies[rng.Intn(len(policies))]
	case ClassCompare:
		op.Workload = workloads[rng.Intn(len(workloads))]
		// 2–4 distinct policies; a coordinator turns each into a shard.
		n := 2 + rng.Intn(3)
		perm := rng.Perm(len(policies))
		for _, pi := range perm[:n] {
			op.Policies = append(op.Policies, policies[pi])
		}
	case ClassBatch:
		// One workload, 3–6 distinct policies: the coalescing-friendly shape —
		// every item shares the trace, so the server replays one plan.
		op.Workload = workloads[rng.Intn(len(workloads))]
		n := 3 + rng.Intn(4)
		perm := rng.Perm(len(policies))
		for _, pi := range perm[:n] {
			op.Policies = append(op.Policies, policies[pi])
		}
	case ClassSubmit, ClassWatch:
		// table1 renders configuration tables — the cheapest experiment, so
		// job throughput measures the queue and journal, not the simulator.
		op.Experiment = "table1"
	case ClassList:
		op.Limit = 5 + rng.Intn(20)
		op.Offset = rng.Intn(3) * op.Limit
	}
	return op
}

// pickClass draws one class proportionally to the mix weights.
func pickClass(rng *xrand.RNG, mix []classWeight) string {
	var total uint64
	for _, cw := range mix {
		total += cw.weight
	}
	draw := rng.Uint64n(total)
	for _, cw := range mix {
		if draw < cw.weight {
			return cw.class
		}
		draw -= cw.weight
	}
	return mix[len(mix)-1].class
}
