package trace

import (
	"bytes"
	"testing"
)

// Fuzz targets for the trace codecs: arbitrary byte streams must never
// panic the readers, and every valid stream the writers produce must
// round-trip. Run with `go test -fuzz=FuzzReadBinary ./internal/trace` for
// coverage-guided exploration; in normal test mode the seed corpus runs.

func binarySeed(t *testing.T) []byte {
	t.Helper()
	tr, err := makeSample(7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadBinary(f *testing.F) {
	if tr, err := makeSample(7); err == nil {
		var buf bytes.Buffer
		_ = tr.WriteBinary(&buf)
		f.Add(buf.Bytes())
	}
	// Empty-but-non-nil clock snapshots once desynced the decoder (the
	// version-1 owner-skip bug); keep the shape in the corpus.
	{
		var buf bytes.Buffer
		_ = emptyClockTrace().WriteBinary(&buf)
		f.Add(buf.Bytes())
	}
	// A multi-shard trace crossing chunk boundaries keeps the chunked
	// recorder's merge path in the corpus.
	{
		var buf bytes.Buffer
		_ = chunkCrossingTrace().WriteBinary(&buf)
		f.Add(buf.Bytes())
	}
	// Version 1 used the ambiguous clock encoding and must be refused.
	f.Add(emptyBinaryTrace(1))
	f.Add([]byte("WFTR"))
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must re-encode and re-decode stably.
		var out bytes.Buffer
		if err := got.WriteBinary(&out); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Events) != len(got.Events) {
			t.Fatalf("event count drifted: %d vs %d", len(back.Events), len(got.Events))
		}
	})
}

func FuzzReadJSON(f *testing.F) {
	if tr, err := makeSample(3); err == nil {
		var buf bytes.Buffer
		_ = tr.WriteJSON(&buf)
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"label":"x","events":[{"kind":"bogus"}]}`))
	f.Add([]byte(`{`))
	// Seqs that are not positions once reached the analyzer and crashed it.
	f.Add([]byte(`{"label":"x","events":[{"seq":7,"kind":"init","obj":1,"tid":1},{"seq":8,"kind":"use","obj":1,"tid":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range got.Events {
			if e.Seq != i {
				t.Fatalf("event %d has Seq %d", i, e.Seq)
			}
		}
		var out bytes.Buffer
		if err := got.WriteJSON(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

// TestBinaryFuzzSeedRoundTrips keeps a deterministic guard on the seed
// input independent of fuzz mode.
func TestBinaryFuzzSeedRoundTrips(t *testing.T) {
	data := binarySeed(t)
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("seed rejected: %v", err)
	}
	if len(got.Events) == 0 {
		t.Fatal("seed trace empty")
	}
}
