package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hmem/internal/trace"
)

// sliceStream replays a fixed record slice as a trace.Stream.
type sliceStream struct {
	recs []trace.Record
	pos  int
}

func (s *sliceStream) Next() (trace.Record, error) {
	if s.pos >= len(s.recs) {
		return trace.Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

func testRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: uint32(i), PC: 0x400000, Addr: uint64(i) << 12, Kind: trace.Read}
	}
	return recs
}

func mustInjector(t *testing.T, p Plan) *Injector {
	t.Helper()
	inj, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestPlanRoundTripsThroughJSON(t *testing.T) {
	p := Plan{
		Seed:  7,
		Trace: []TraceFault{{AtRecord: 3, Mode: ModeCorrupt}},
		Tasks: []TaskFault{{AtCall: 1, Mode: ModePanic}, {AtCall: 2, Mode: ModeDelay, DelayMS: 5}},
		HTTP:  []HTTPFault{{AtRequest: 0, Mode: ModeError, Code: 503}},
		Write: []WriteFault{{AtWrite: 2, Mode: ModeShort}},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, _ := json.Marshal(back)
	if !bytes.Equal(data, data2) {
		t.Fatalf("plan did not round-trip:\n%s\n%s", data, data2)
	}
}

func TestPlanValidateRejectsBadModes(t *testing.T) {
	bad := []Plan{
		{Trace: []TraceFault{{AtRecord: 0, Mode: "explode"}}},
		{Trace: []TraceFault{{AtRecord: -1, Mode: ModeError}}},
		{Tasks: []TaskFault{{AtCall: 0, Mode: "truncate"}}},
		{HTTP: []HTTPFault{{AtRequest: 0, Mode: "panic"}}},
		{HTTP: []HTTPFault{{AtRequest: 0, Mode: ModeError, Code: 200}}},
		{Write: []WriteFault{{AtWrite: 0, Mode: "drop"}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted", i)
		}
		if _, err := New(p); err == nil {
			t.Errorf("New accepted plan %d", i)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("zero plan rejected: %v", err)
	}
}

func TestStreamErrorReportsPosition(t *testing.T) {
	inj := mustInjector(t, Plan{Trace: []TraceFault{{AtRecord: 2, Mode: ModeError}}})
	s := inj.Stream(&sliceStream{recs: testRecords(10)})
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	_, err := s.Next()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	var se *StreamError
	if !errors.As(err, &se) || se.Record != 2 || se.Mode != ModeError {
		t.Fatalf("StreamError = %+v", se)
	}
	// The error is sticky: the stream stays failed, it does not resume.
	if _, err2 := s.Next(); !errors.Is(err2, ErrInjected) {
		t.Fatalf("stream resumed after injected error: %v", err2)
	}
	if got := inj.Stats().Trace; got != 1 {
		t.Fatalf("trace fault count = %d, want 1", got)
	}
}

func TestStreamTruncateEndsEarly(t *testing.T) {
	inj := mustInjector(t, Plan{Trace: []TraceFault{{AtRecord: 4, Mode: ModeTruncate}}})
	recs, err := trace.Collect(inj.Stream(&sliceStream{recs: testRecords(10)}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
}

func TestStreamCorruptIsDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Trace: []TraceFault{{AtRecord: 1, Mode: ModeCorrupt}}}
	collect := func() []trace.Record {
		inj := mustInjector(t, plan)
		recs, err := trace.Collect(inj.Stream(&sliceStream{recs: testRecords(5)}), 0)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := collect(), collect()
	if len(a) != 5 {
		t.Fatalf("corrupt mode changed record count: %d", len(a))
	}
	clean := testRecords(5)
	if a[1] == clean[1] {
		t.Fatal("record 1 not corrupted")
	}
	if a[0] != clean[0] || a[2] != clean[2] {
		t.Fatal("corruption leaked into neighbouring records")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption not deterministic at record %d", i)
		}
	}
	// A different seed corrupts differently.
	inj2 := mustInjector(t, Plan{Seed: 43, Trace: plan.Trace})
	c, err := trace.Collect(inj2.Stream(&sliceStream{recs: testRecords(5)}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c[1] == a[1] {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestTaskPanicAndErrorFireAtIndices(t *testing.T) {
	inj := mustInjector(t, Plan{Tasks: []TaskFault{
		{AtCall: 1, Mode: ModePanic},
		{AtCall: 2, Mode: ModeError},
	}})
	ran := 0
	task := func() error { ran++; return nil }

	if err := inj.Task(task)(); err != nil || ran != 1 {
		t.Fatalf("call 0: err=%v ran=%d", err, ran)
	}
	func() {
		defer func() {
			r := recover()
			tp, ok := r.(TaskPanic)
			if !ok || tp.Call != 1 {
				t.Fatalf("recover() = %v, want TaskPanic{Call: 1}", r)
			}
		}()
		inj.Task(task)()
		t.Fatal("call 1 did not panic")
	}()
	if err := inj.Task(task)(); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 2: err=%v, want ErrInjected", err)
	}
	if ran != 1 {
		t.Fatalf("faulted calls ran the task: ran=%d", ran)
	}
	if err := inj.Task(task)(); err != nil || ran != 2 {
		t.Fatalf("call 3: err=%v ran=%d", err, ran)
	}
	if got := inj.Stats().Tasks; got != 2 {
		t.Fatalf("task fault count = %d, want 2", got)
	}
}

func TestRoundTripperInjectsFaults(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	inj := mustInjector(t, Plan{HTTP: []HTTPFault{
		{AtRequest: 0, Mode: ModeError},
		{AtRequest: 1, Mode: ModeDrop},
	}})
	client := &http.Client{Transport: inj.RoundTripper(nil)}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("request 0: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request 0: status %d, want 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "chaos") {
		t.Fatalf("request 0 body: %q", body)
	}

	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("request 1: dropped connection produced a response")
	}
	if served != 0 {
		t.Fatalf("faulted requests reached the server: %d", served)
	}

	resp, err = client.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("request 2: %v %v", resp, err)
	}
	resp.Body.Close()
	if served != 1 {
		t.Fatalf("served = %d, want 1", served)
	}
}

func TestWriterInjectsFailures(t *testing.T) {
	inj := mustInjector(t, Plan{Write: []WriteFault{
		{AtWrite: 1, Mode: ModeError},
		{AtWrite: 2, Mode: ModeShort},
	}})
	var buf bytes.Buffer
	w := inj.Writer(&buf)

	if n, err := w.Write([]byte("aaaa")); err != nil || n != 4 {
		t.Fatalf("write 0: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("bbbb")); !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("write 1: n=%d err=%v, want injected error", n, err)
	}
	n, err := w.Write([]byte("cccc"))
	if !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("write 2: n=%d err=%v, want torn write of 2 bytes", n, err)
	}
	if n, err := w.Write([]byte("dddd")); err != nil || n != 4 {
		t.Fatalf("write 3: n=%d err=%v", n, err)
	}
	if got := buf.String(); got != "aaaaccdddd" {
		t.Fatalf("buffer = %q, want %q", got, "aaaaccdddd")
	}
	if got := inj.Stats().Write; got != 2 {
		t.Fatalf("write fault count = %d, want 2", got)
	}
}
