package experiments

import (
	"context"
	"sort"
	"testing"
)

// warmRunner returns a runner on which every given policy has been
// evaluated once on astar, so each later Evaluate is a memo hit.
func warmRunner(tb testing.TB, policies ...PolicyName) *Runner {
	tb.Helper()
	opts := blockTestOptions()
	r, err := NewRunner(opts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.Compare(context.Background(), "astar", policies); err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestWarmEvaluateAllocatesNothing: a warm evaluation under a bare context
// resolves no policy or mechanism name, so it allocates nothing, whatever
// the policy's block kind.
func TestWarmEvaluateAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	var policies []PolicyName
	for p := range policyBlocks {
		policies = append(policies, p)
	}
	sort.Slice(policies, func(i, j int) bool { return policies[i] < policies[j] })
	r := warmRunner(t, policies...)
	ctx := context.Background()
	misses := r.CacheStats().Misses
	for _, p := range policies {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := r.Evaluate(ctx, "astar", p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm Evaluate(astar, %s) allocates %.1f per call, want 0", p, allocs)
		}
	}
	if got := r.CacheStats().Misses; got != misses {
		t.Errorf("warm evaluations started %d simulations, want 0", got-misses)
	}
}

// TestExecuteRejectsUnresolvableNames: a block whose name resolves to no
// policy or mechanism is an error, and no simulation starts for it.
func TestExecuteRejectsUnresolvableNames(t *testing.T) {
	r := mustRunner(t, blockTestOptions())
	for _, kind := range []BlockKind{BlockStatic, BlockDynamic} {
		b := Block{Kind: kind, Workload: "astar", Name: "no-such-name"}
		if _, err := r.Execute(context.Background(), b); err == nil {
			t.Errorf("Execute(%+v) succeeded, want an unresolvable-name error", b)
		}
	}
	if got := r.TraceStats().Opens; got != 0 {
		t.Errorf("unresolvable blocks recorded %d traces, want 0", got)
	}
}

// evaluateSink keeps BenchmarkWarmEvaluate's calls from being optimized
// away.
var evaluateSink Result

// BenchmarkWarmEvaluate is the runner layer of a warm hmemd answer: one
// memoized evaluation of a static, a dynamic and the annotation policy.
func BenchmarkWarmEvaluate(b *testing.B) {
	policies := []PolicyName{PolicyBalanced, PolicyCCMigration, PolicyAnnotation}
	r := warmRunner(b, policies...)
	ctx := context.Background()
	for _, p := range policies {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := r.Evaluate(ctx, "astar", p)
				if err != nil {
					b.Fatal(err)
				}
				evaluateSink = res
			}
		})
	}
}
