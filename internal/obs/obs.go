// Package obs is the repository's observability layer: run-scoped tracing
// spans, a reusable metrics registry with deterministic Prometheus-text
// rendering, lightweight job-progress reporting, and pprof/debug HTTP
// endpoints. It is dependency-free (stdlib only) and deliberately passive:
// spans and progress reports are carried through context.Context, and code
// instrumented with them is a strict no-op — zero allocations, zero
// branches beyond one context lookup per seam — when the context carries no
// tracer or progress sink. A Registry is never carried in a context: the
// process that renders it (hmemd) holds it, and library code exposes plain
// counts that the process copies in.
//
// The three facilities compose but do not require each other:
//
//   - Spans (Start/End) record named, attributed wall-time intervals into an
//     Exporter — an in-memory Ring the hmemd service exposes via
//     GET /v1/jobs/{id}/trace, or an NDJSON file writer for offline runs.
//     A Tracer owns one run's TraceID (hmemd uses the job id), so one shared
//     ring buffer serves every job's trace query.
//   - The Registry renders counters, gauges, and histograms (plain or
//     labeled) as Prometheus exposition text with families sorted by name
//     and series sorted by label values — scrapes are byte-stable for a
//     fixed state, which is what lets a golden test freeze the page.
//   - Progress reports (phase, percent, records) flow from fan-out seams
//     (exec.Map) to whoever installed a sink — hmemd turns them into the
//     job's live `progress` field and watch-stream events.
//
// Exporter failures never propagate into the instrumented code path: a span
// that cannot be exported is counted on Tracer.Dropped and discarded, so a
// full disk degrades observability, not the job being observed.
package obs

import (
	"context"
	"strconv"
)

// Attr is one span attribute. Values are restricted to the three scalar
// constructors below so NDJSON output stays schema-stable.
type Attr struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Val: val} }

// Float builds a float attribute.
func Float(key string, val float64) Attr { return Attr{Key: key, Val: val} }

// ctxKey is the private context-key namespace for the package.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	progressKey
)

// WithTracer returns a context carrying tr; Start on the result records
// spans. A nil tr returns ctx unchanged.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, tr)
}

// TracerFrom returns the context's tracer, or nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// Enabled reports whether the context carries a tracer. Hot seams that would
// allocate to build span attributes should gate on it.
func Enabled(ctx context.Context) bool { return TracerFrom(ctx) != nil }

// Detach returns a fresh background context carrying only the observability
// values of ctx (tracer, active span, progress sink) — none of its
// cancellation or deadlines. It exists for singleflight seams (exec.Memo):
// a memoized computation must not observe its first requester's cancellation,
// but should still attribute its spans and progress to that requester's run.
func Detach(ctx context.Context) context.Context {
	out := context.Background()
	if tr := TracerFrom(ctx); tr != nil {
		out = context.WithValue(out, tracerKey, tr)
	}
	if sp := SpanFrom(ctx); sp != nil {
		out = context.WithValue(out, spanKey, sp)
	}
	if pf := progressFrom(ctx); pf != nil {
		out = context.WithValue(out, progressKey, pf)
	}
	return out
}

// formatFloat renders a float the way the exposition page needs it: shortest
// representation that round-trips ('g'), so integral gauges print as "1".
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
