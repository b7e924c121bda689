package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceBinary checks the binary codec: a write→read round
// trip over records decoded from arbitrary bytes must be lossless.
func FuzzTraceBinary(f *testing.F) {
	f.Add([]byte{})
	var seed bytes.Buffer
	w, err := NewWriter(&seed)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Write(Record{Gap: 7, Kind: Write, PC: 0x400, Addr: 0x1234})
	_ = w.Write(Record{Gap: 0, Kind: InstFetch, PC: 1, Addr: 1 << 40})
	_ = w.Close()
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, input []byte) {
		var recs []Record
		r, err := NewReader(bytes.NewReader(input))
		if err != nil {
			return // not a trace file; rejecting is the correct outcome
		}
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			recs = append(recs, rec)
			if len(recs) > 1<<16 {
				break // bound fuzz memory on adversarial long inputs
			}
		}
		if len(recs) == 0 {
			return
		}
		var buf bytes.Buffer
		bw, err := NewWriter(&buf)
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		for _, rec := range recs {
			if err := bw.Write(rec); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		back, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewReader round trip: %v", err)
		}
		for i, want := range recs {
			got, err := back.Next()
			if err != nil {
				t.Fatalf("record %d lost in round trip: %v", i, err)
			}
			if got != want {
				t.Fatalf("record %d round trip: got %+v, want %+v", i, got, want)
			}
		}
	})
}
