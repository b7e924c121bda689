package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a reusable metrics registry rendering Prometheus exposition
// text deterministically: families sort by name, series sort by label
// values, so a scrape is byte-stable for a fixed state — the property the
// service's golden /metrics test freezes.
//
// Registration is idempotent: asking for an existing (name, type, labels)
// returns the existing handle, so instrumented code may register lazily at
// the point of use. Re-registering a name with a different type or label
// set panics — that is a programming error, not a runtime condition.
//
// All handles are safe for concurrent use, including concurrently with
// RenderText.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric family: a name/help/type plus its series keyed by
// joined label values.
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // *Counter, *Gauge, or *Histogram
}

// seriesKeySep joins label values into a series key. 0xff cannot appear in
// valid UTF-8 label values, so the join is unambiguous.
const seriesKeySep = "\xff"

// lookup returns the family, creating it on first use and panicking on a
// conflicting re-registration.
func (r *Registry) lookup(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = map[string]*family{}
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			labels: append([]string(nil), labels...),
			bounds: append([]float64(nil), bounds...),
			series: map[string]any{},
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, typ, labels, f.typ, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
		}
	}
	return f
}

// one returns the family's series for the label values, creating it with mk
// on first use. The series key is built on the stack, so finding an
// existing series allocates nothing.
func (f *family) one(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := make([]byte, 0, 128)
	for i, v := range values {
		if i > 0 {
			key = append(key, seriesKeySep...)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		s = mk()
		f.series[string(key)] = s
	}
	return s
}

// --- Counter ---

// Counter is a monotonically increasing value. Set exists only for
// mirroring an external monotonic source (e.g. memo hit counters owned by
// the engine) into the registry at scrape time.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Set overwrites the value; use only to mirror an external monotonic counter.
func (c *Counter) Set(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, nil, nil)
	return f.one(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family with label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels, nil)}
}

// With returns the series for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.one(values, func() any { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, nil, nil)
	return f.one(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family with label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels, nil)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.one(values, func() any { return &Gauge{} }).(*Gauge)
}

// --- Histogram ---

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	bounds  []float64
	mu      sync.Mutex
	buckets []uint64 // one per bound, plus +Inf
	sum     float64
	count   uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, bound := range h.bounds {
		if v <= bound {
			idx = i
			break
		}
	}
	h.mu.Lock()
	h.buckets[idx]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Histogram registers (or finds) an unlabeled histogram with the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, typeHistogram, nil, bounds)
	return f.one(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labels, bounds)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.one(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

// --- Rendering ---

// RenderText writes the whole registry as Prometheus exposition text.
// Output is deterministic: families in name order, series in label-value
// order, histogram buckets in bound order.
func (r *Registry) RenderText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		labels := f.labelPairs(key)
		switch s := f.series[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labels, s.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(s.Value()))
		case *Histogram:
			s.mu.Lock()
			cum := uint64(0)
			for i, bound := range s.bounds {
				cum += s.buckets[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.bucketLabels(key, formatFloat(bound)), cum)
			}
			cum += s.buckets[len(s.bounds)]
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.bucketLabels(key, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(s.sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, s.count)
			s.mu.Unlock()
		}
	}
	f.mu.Unlock()
}

// labelPairs renders a series key as {k="v",...}, or "" for unlabeled series.
func (f *family) labelPairs(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := strings.Split(key, seriesKeySep)
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", name, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// bucketLabels renders a histogram bucket's label set, appending le to the
// series labels.
func (f *family) bucketLabels(key, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	if len(f.labels) > 0 {
		values := strings.Split(key, seriesKeySep)
		for i, name := range f.labels {
			fmt.Fprintf(&b, "%s=%q,", name, values[i])
		}
	}
	fmt.Fprintf(&b, "le=%q", le)
	b.WriteByte('}')
	return b.String()
}
