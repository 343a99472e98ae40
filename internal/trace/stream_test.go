package trace

import (
	"bytes"
	"strings"
	"testing"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// streamSample runs a small world recording through a StreamRecorder.
func streamSample(t *testing.T, seed int64) (*Trace, []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewStreamRecorder(&buf, "stream/test", seed)
	if err != nil {
		t.Fatalf("NewStreamRecorder: %v", err)
	}
	memRec := NewRecorder("stream/test", seed)
	w := sim.NewWorld(sim.Config{Seed: seed})
	runErr := w.Run(func(root *sim.Thread) {
		vclock.Attach(root)
		record := func(th *sim.Thread, site SiteID, obj ObjID, kind Kind) {
			rec.Record(th, site, obj, kind, 0)
			memRec.Record(th, site, obj, kind, 0)
		}
		record(root, "a.go:1", 1, KindInit)
		c := root.Spawn("worker", func(c *sim.Thread) {
			c.Sleep(2 * sim.Millisecond)
			record(c, "a.go:2", 1, KindUse)
			record(c, "a.go:2", 2, KindUse) // repeated site: one table entry
		})
		root.Sleep(4 * sim.Millisecond)
		record(root, "a.go:3", 1, KindDispose)
		root.Join(c)
	})
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	if err := rec.Close(w.Now()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return memRec.Finish(w.Now()), buf.Bytes()
}

func TestStreamRoundTripMatchesInMemoryRecorder(t *testing.T) {
	want, raw := streamSample(t, 3)
	got, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if !equalTraces(want, got) {
		t.Fatalf("stream trace differs from in-memory trace")
	}
	if got.Label != "stream/test" || got.Seed != 3 {
		t.Fatalf("metadata = %q/%d", got.Label, got.Seed)
	}
}

func TestStreamRecorderLen(t *testing.T) {
	_, raw := streamSample(t, 1)
	tr, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(tr.Events))
	}
}

func TestStreamRejectsTruncation(t *testing.T) {
	_, raw := streamSample(t, 1)
	// Drop the trailer and some bytes: must be reported as truncated.
	if _, err := ReadStream(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := ReadStream(strings.NewReader("WFTSgarbage")); err == nil {
		t.Fatal("garbage stream accepted")
	}
	if _, err := ReadStream(strings.NewReader("NOPE")); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

func TestStreamAnalyzableByCore(t *testing.T) {
	// The streamed trace must be functionally identical for consumers:
	// the stats cover thread, object, site and per-kind counts.
	want, raw := streamSample(t, 9)
	got, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := want.ComputeStats(), got.ComputeStats()
	if ws != gs {
		t.Fatalf("stats differ: %+v vs %+v", ws, gs)
	}
}
