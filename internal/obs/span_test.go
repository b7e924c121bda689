package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestStartWithoutTracerIsFreeNoop(t *testing.T) {
	ctx := context.Background()
	out, sp := Start(ctx, "anything")
	if out != ctx {
		t.Fatalf("Start without tracer returned a derived context")
	}
	if sp != nil {
		t.Fatalf("Start without tracer returned a non-nil span")
	}
	// Nil-safe methods must not panic.
	sp.SetAttrs(Str("k", "v"))
	sp.End()
	if Enabled(ctx) {
		t.Fatalf("Enabled true without tracer")
	}
	if SpanName(ctx) != "" {
		t.Fatalf("SpanName non-empty without span")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		c, s := Start(ctx, "hot")
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled Start allocates: %v allocs/op", allocs)
	}
}

func TestSpanParentingAndExport(t *testing.T) {
	ring := NewRing(16)
	tr := NewTracer("run-1", ring)
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "outer", Str("kind", "test"))
	ctx2, child := Start(ctx1, "inner")
	if SpanName(ctx2) != "inner" || SpanName(ctx1) != "outer" {
		t.Fatalf("SpanName wrong: %q / %q", SpanName(ctx2), SpanName(ctx1))
	}
	child.SetAttrs(Int("n", 7))
	child.End()
	root.End()

	spans := ring.Snapshot("run-1")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Children end first.
	in, out := spans[0], spans[1]
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("order wrong: %q then %q", in.Name, out.Name)
	}
	if in.Parent != out.Span {
		t.Fatalf("child parent=%d, want outer id %d", in.Parent, out.Span)
	}
	if out.Parent != 0 {
		t.Fatalf("root has parent %d", out.Parent)
	}
	if in.Trace != "run-1" || out.Trace != "run-1" {
		t.Fatalf("trace ids wrong: %q %q", in.Trace, out.Trace)
	}
	if in.DurationNS < 0 || out.DurationNS < 0 {
		t.Fatalf("negative durations")
	}
	if len(in.Attrs) != 1 || in.Attrs[0].Key != "n" {
		t.Fatalf("inner attrs wrong: %+v", in.Attrs)
	}
}

func TestTracerDroppedOnExportError(t *testing.T) {
	boom := errors.New("disk full")
	tr := NewTracer("t", ExportFunc(func(SpanData) error { return boom }))
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "a")
	sp.End()
	_, sp = Start(ctx, "b")
	sp.End()
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
}

func TestTracerOnEnd(t *testing.T) {
	var names []string
	tr := NewTracer("t", nil)
	tr.OnEnd(func(sd SpanData) { names = append(names, sd.Name) })
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "phase-a")
	sp.End()
	if len(names) != 1 || names[0] != "phase-a" {
		t.Fatalf("OnEnd got %v", names)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	ring := NewRing(3)
	tr := NewTracer("t", ring)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, fmt.Sprintf("s%d", i))
		sp.End()
	}
	if ring.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ring.Len())
	}
	if ring.Total() != 5 {
		t.Fatalf("Total = %d, want 5", ring.Total())
	}
	spans := ring.Snapshot("")
	var names []string
	for _, sd := range spans {
		names = append(names, sd.Name)
	}
	want := []string{"s2", "s3", "s4"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot %v, want %v", names, want)
		}
	}
	if got := ring.Snapshot("other"); len(got) != 0 {
		t.Fatalf("filter by unknown trace returned %d spans", len(got))
	}
}

func TestRingCapacityFloor(t *testing.T) {
	ring := NewRing(0)
	if err := ring.Export(SpanData{Name: "x"}); err != nil {
		t.Fatalf("Export: %v", err)
	}
	if ring.Len() != 1 {
		t.Fatalf("Len = %d", ring.Len())
	}
}

func TestNDJSONExporter(t *testing.T) {
	var buf bytes.Buffer
	exp := NewNDJSON(&buf)
	tr := NewTracer("file-run", exp)
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "decode", Int("records", 10))
	sp.End()

	line := strings.TrimSpace(buf.String())
	var sd SpanData
	if err := json.Unmarshal([]byte(line), &sd); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	if sd.Trace != "file-run" || sd.Name != "decode" {
		t.Fatalf("decoded %+v", sd)
	}
	if len(sd.Attrs) != 1 || sd.Attrs[0].Key != "records" {
		t.Fatalf("attrs %+v", sd.Attrs)
	}
}

func TestMultiExporter(t *testing.T) {
	var got []string
	ok := ExportFunc(func(sd SpanData) error { got = append(got, sd.Name); return nil })
	bad := ExportFunc(func(SpanData) error { return errors.New("nope") })
	m := Multi{bad, ok}
	if err := m.Export(SpanData{Name: "s"}); err == nil {
		t.Fatalf("Multi swallowed the error")
	}
	if len(got) != 1 || got[0] != "s" {
		t.Fatalf("second exporter skipped: %v", got)
	}
}

// TestSpansConcurrent is the race-detected satellite for the ring: many
// goroutines start/end spans against one tracer and ring while another
// goroutine snapshots.
func TestSpansConcurrent(t *testing.T) {
	ring := NewRing(64)
	tr := NewTracer("conc", ring)
	base := WithTracer(context.Background(), tr)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = ring.Snapshot("conc")
				_ = ring.Len()
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				ctx, sp := Start(base, "worker", Int("id", int64(id)))
				_, inner := Start(ctx, "task")
				inner.End()
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-snapDone

	if ring.Total() != 8*500*2 {
		t.Fatalf("Total = %d, want %d", ring.Total(), 8*500*2)
	}
}

func TestDetachCarriesObsValuesOnly(t *testing.T) {
	ring := NewRing(4)
	tr := NewTracer("d", ring)
	var reports []Progress
	ctx, cancel := context.WithCancel(context.Background())
	ctx = WithTracer(ctx, tr)
	ctx = WithProgress(ctx, func(p Progress) { reports = append(reports, p) })
	ctx, sp := Start(ctx, "outer")
	defer sp.End()

	detached := Detach(ctx)
	cancel()
	if detached.Err() != nil {
		t.Fatalf("detached context inherited cancellation: %v", detached.Err())
	}
	if TracerFrom(detached) != tr {
		t.Fatalf("tracer lost")
	}
	if SpanFrom(detached) != sp {
		t.Fatalf("span lost")
	}
	ReportProgress(detached, Progress{Percent: 0.5})
	if len(reports) != 1 || reports[0].Phase != "outer" {
		t.Fatalf("progress sink lost or phase not defaulted: %+v", reports)
	}
}

func TestReportProgressNoSinkIsNoop(t *testing.T) {
	ReportProgress(context.Background(), Progress{Phase: "x"}) // must not panic
	if WithProgress(context.Background(), nil) != context.Background() {
		t.Fatalf("WithProgress(nil) derived a context")
	}
	if WithTracer(context.Background(), nil) != context.Background() {
		t.Fatalf("WithTracer(nil) derived a context")
	}
}
