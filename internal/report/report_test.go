package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tab := New("demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("a-much-longer-name", "2")
	tab.Note = "hello"
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "note: hello") {
		t.Error("note missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows + note
	if len(lines) != 6 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Columns align: every data line has the value column at the same
	// offset, padded to the longest cell.
	header := lines[1]
	idx := strings.Index(header, "value")
	for _, ln := range lines[3:5] {
		if len(ln) < idx {
			t.Fatalf("row %q shorter than header offset", ln)
		}
	}
}

func TestTableStringNoTitleNoNote(t *testing.T) {
	tab := New("", "a")
	tab.AddRow("x")
	out := tab.String()
	if strings.Contains(out, "==") || strings.Contains(out, "note:") {
		t.Fatalf("unexpected decorations: %q", out)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tab := New("t", "a", "b")
	tab.AddRow("only-one")
	tab.AddRow("x", "y", "extra-kept")
	out := tab.String()
	if !strings.Contains(out, "only-one") || !strings.Contains(out, "y") {
		t.Fatalf("rows mangled: %q", out)
	}
}

func TestWriteCSV(t *testing.T) {
	tab := New("t", "a", "b")
	tab.AddRow("1", "with,comma")
	tab.AddRow("2", `with "quote"`)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "a,b\n") {
		t.Fatalf("header wrong: %q", got)
	}
	if !strings.Contains(got, `"with,comma"`) {
		t.Fatalf("comma cell not quoted: %q", got)
	}
	if !strings.Contains(got, `"with ""quote"""`) {
		t.Fatalf("quote cell not escaped: %q", got)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteCSVPropagatesErrors(t *testing.T) {
	tab := New("t", "a")
	tab.AddRow("1")
	if err := tab.WriteCSV(failWriter{}); err == nil {
		t.Fatal("expected write error")
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct{ got, want string }{
		{F(3.14159, 2), "3.14"},
		{F(3.14159, 0), "3"},
		{X(1.6), "1.60x"},
		{Pct(0.123), "12.3%"},
		{Pct(1), "100.0%"},
		{Int(42), "42"},
		{Int(-7), "-7"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

// TestJSONRoundTrip pins the table's JSON form, which job results carry on
// the wire and the journal: title, note and ragged rows survive a
// marshal/unmarshal round trip.
func TestJSONRoundTrip(t *testing.T) {
	tab := New("Figure 5: static placement", "workload", "IPC", "SER")
	tab.Note = "paper: 1.6x"
	tab.AddRow("astar", "1.63x", "287.00x")
	tab.AddRow("short-row")
	tab.AddRow("x", "y", "z", "extra-kept")
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, tab) {
		t.Fatalf("round trip mangled:\n%+v\nvs\n%+v", got, tab)
	}
}

// TestJSONDeterministicBytes: the service promises byte-identical job
// results for identical runs; that only holds if the table encoding itself
// is stable.
func TestJSONDeterministicBytes(t *testing.T) {
	tab := New("t", "a", "b")
	tab.AddRow("1", "2")
	a, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("encodings differ: %q vs %q", a, b)
	}
}

// TestCSVRoundTrip checks that WriteCSV output parses back as CSV to the
// same cells, quoting included and ragged rows kept.
func TestCSVRoundTrip(t *testing.T) {
	tab := New("t", "a", "b")
	tab.AddRow("1", "with,comma")
	tab.AddRow("only-one")
	tab.AddRow("x", "y", "extra-kept")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := append([][]string{tab.Columns}, tab.Rows...); !reflect.DeepEqual(records, want) {
		t.Fatalf("round trip mangled:\n%q\nvs\n%q", records, want)
	}
}
