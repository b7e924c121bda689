package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// SpanData is one finished span, as exported. The JSON field names are the
// NDJSON wire format of the file exporter and the /v1/jobs/{id}/trace
// endpoint.
type SpanData struct {
	// Trace is the run-scoped trace id (hmemd uses the job id; cmd/experiments
	// uses one id per invocation).
	Trace string `json:"trace"`
	// Span is the span's id, unique within its trace; Parent is the enclosing
	// span's id (0 for a root span).
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start is the span's start time; DurationNS its recorded wall time.
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Tracer issues spans for one run. It is safe for concurrent use; hmemd
// creates one per job (TraceID = job id) over a shared ring exporter.
type Tracer struct {
	trace   string
	exp     Exporter
	nextID  atomic.Uint64
	dropped atomic.Uint64
	onEnd   func(SpanData)
}

// NewTracer returns a tracer whose spans carry traceID and flow to exp.
// A nil exporter is allowed: spans are timed (and OnEnd still fires) but
// nothing is stored.
func NewTracer(traceID string, exp Exporter) *Tracer {
	return &Tracer{trace: traceID, exp: exp}
}

// OnEnd installs a hook invoked (synchronously, from End's goroutine) for
// every finished span — hmemd feeds per-phase latency histograms and the job
// progress phase from it. Must be set before the tracer is shared.
func (t *Tracer) OnEnd(fn func(SpanData)) { t.onEnd = fn }

// Dropped reports how many spans the exporter failed to accept. Export
// errors are absorbed here by design: a broken span sink must never fail the
// run being observed.
func (t *Tracer) Dropped() uint64 { return t.dropped.Load() }

// Span is one in-flight interval. The zero of *Span (nil) is the disabled
// span: every method is a safe no-op, so call sites need no tracing-enabled
// branches.
type Span struct {
	t    *Tracer
	data SpanData
}

// Start begins a span named name under ctx's tracer, parenting it to the
// context's current span, and returns a derived context carrying the new
// span. When the context has no tracer it returns ctx and a nil span without
// allocating — instrumentation is free when tracing is off (callers passing
// computed attributes should gate on Enabled to keep building them free too).
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{
		t: tr,
		data: SpanData{
			Trace: tr.trace,
			Span:  tr.nextID.Add(1),
			Name:  name,
			Start: time.Now(),
			Attrs: attrs,
		},
	}
	if parent := SpanFrom(ctx); parent != nil {
		sp.data.Parent = parent.data.Span
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// SpanFrom returns the context's innermost span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// SpanName returns the innermost span's name ("" when tracing is off) — the
// phase label progress reports attach to.
func SpanName(ctx context.Context) string {
	if sp := SpanFrom(ctx); sp != nil {
		return sp.data.Name
	}
	return ""
}

// SetAttrs appends attributes to the span. Nil-safe; call before End.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// End stamps the span's duration and exports it. Nil-safe. An exporter
// error increments the tracer's dropped counter and is otherwise ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.data.DurationNS = time.Since(s.data.Start).Nanoseconds()
	if s.t.exp != nil {
		if err := s.t.exp.Export(s.data); err != nil {
			s.t.dropped.Add(1)
		}
	}
	if s.t.onEnd != nil {
		s.t.onEnd(s.data)
	}
}
