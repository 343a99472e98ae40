package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// sample builds a small but representative trace by running a real world.
func sample(t *testing.T, seed int64) *Trace {
	t.Helper()
	tr, err := makeSample(seed)
	if err != nil {
		t.Fatalf("makeSample: %v", err)
	}
	return tr
}

// makeSample is the test-independent form, shared with the fuzz seeds.
func makeSample(seed int64) (*Trace, error) {
	rec := NewRecorder("app/test", seed)
	w := sim.NewWorld(sim.Config{Seed: seed})
	err := w.Run(func(root *sim.Thread) {
		vclock.Attach(root)
		rec.Record(root, "a.go:1", 1, KindInit, 0)
		c := root.Spawn("worker", func(c *sim.Thread) {
			c.Sleep(2 * sim.Millisecond)
			rec.Record(c, "a.go:2", 1, KindUse, 0)
			rec.Record(c, "b.go:9", 2, KindAPIWrite, 300*sim.Microsecond)
		})
		root.Sleep(5 * sim.Millisecond)
		rec.Record(root, "a.go:3", 1, KindDispose, 0)
		rec.Record(root, "b.go:9", 2, KindAPIRead, 200*sim.Microsecond)
		root.Join(c)
	})
	if err != nil {
		return nil, err
	}
	return rec.Finish(w.Now()), nil
}

func TestRecorderCapturesOrderAndClocks(t *testing.T) {
	tr := sample(t, 1)
	if len(tr.Events) != 5 {
		t.Fatalf("events = %d, want 5", len(tr.Events))
	}
	for i, e := range tr.Events {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
		if e.Clock == nil {
			t.Errorf("event %d missing clock", i)
		}
		if i > 0 && e.T < tr.Events[i-1].T {
			t.Errorf("timestamps regress at %d", i)
		}
	}
	if tr.End < tr.Events[len(tr.Events)-1].T {
		t.Error("End precedes last event")
	}
	// The init (pre-fork, root) must be fork-ordered before the child use.
	var initEv, useEv *Event
	for i := range tr.Events {
		switch tr.Events[i].Kind {
		case KindInit:
			initEv = &tr.Events[i]
		case KindUse:
			useEv = &tr.Events[i]
		}
	}
	if !vclock.Ordered(initEv.Clock, useEv.Clock) {
		t.Error("pre-fork init not ordered with child use")
	}
}

func TestComputeStats(t *testing.T) {
	tr := sample(t, 1)
	s := tr.ComputeStats()
	if s.Events != 5 || s.Threads != 2 || s.Objects != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MemSites != 3 || s.APISites != 1 {
		t.Fatalf("site counts = %d mem, %d api", s.MemSites, s.APISites)
	}
	if s.InitEvents != 1 || s.UseEvents != 1 || s.DisposeEvents != 1 || s.APIEvents != 2 {
		t.Fatalf("kind counts = %+v", s)
	}
}

func TestDynamicInstances(t *testing.T) {
	tr := sample(t, 1)
	di := tr.DynamicInstances()
	if di["b.go:9"] != 2 {
		t.Fatalf("b.go:9 instances = %d, want 2", di["b.go:9"])
	}
	if di["a.go:1"] != 1 {
		t.Fatalf("a.go:1 instances = %d, want 1", di["a.go:1"])
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindInit; k <= KindAPIWrite; k++ {
		back, err := KindFromString(k.String())
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", k.String(), err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %v", k, back)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestKindClassification(t *testing.T) {
	for _, k := range []Kind{KindInit, KindUse, KindDispose} {
		if !k.IsMemOrder() || k.IsAPI() {
			t.Errorf("%v misclassified", k)
		}
	}
	for _, k := range []Kind{KindAPIRead, KindAPIWrite} {
		if k.IsMemOrder() || !k.IsAPI() {
			t.Errorf("%v misclassified", k)
		}
	}
}

func equalTraces(a, b *Trace) bool {
	if a.Label != b.Label || a.Seed != b.Seed || a.End != b.End || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.Seq != y.Seq || x.T != y.T || x.TID != y.TID || x.Site != y.Site ||
			x.Obj != y.Obj || x.Kind != y.Kind || x.Dur != y.Dur {
			return false
		}
		switch {
		case x.Clock == nil && y.Clock == nil:
		case x.Clock == nil || y.Clock == nil:
			return false
		case x.Clock.Owner() != y.Clock.Owner() || !x.Clock.Leq(y.Clock) || !y.Clock.Leq(x.Clock):
			return false
		}
	}
	return true
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sample(t, 3)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !equalTraces(tr, back) {
		t.Fatal("JSON round trip changed the trace")
	}
}

// A JSON trace whose seq values are not the events' positions is rejected
// with an error naming the event: the analyzer indexes events by Seq.
func TestReadJSONRejectsSeqNotPosition(t *testing.T) {
	in := `{"label":"x","events":[{"seq":7,"t_us":0,"tid":1,"site":"a","obj":1,"kind":"init"},` +
		`{"seq":8,"t_us":5,"tid":2,"site":"b","obj":1,"kind":"use"}]}`
	_, err := ReadJSON(strings.NewReader(in))
	if err == nil {
		t.Fatal("trace with seqs 7 and 8 accepted")
	}
	if !strings.Contains(err.Error(), "event 0 has seq 7") {
		t.Fatalf("error %q does not name the event", err)
	}
	ok := strings.NewReplacer(`"seq":7`, `"seq":0`, `"seq":8`, `"seq":1`).Replace(in)
	if _, err := ReadJSON(strings.NewReader(ok)); err != nil {
		t.Fatalf("trace with seqs 0 and 1 rejected: %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample(t, 3)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !equalTraces(tr, back) {
		t.Fatal("binary round trip changed the trace")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	tr := sample(t, 1)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	tr := sample(t, 5)
	var jb, bb bytes.Buffer
	if err := tr.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= jb.Len() {
		t.Fatalf("binary (%d) not smaller than JSON (%d)", bb.Len(), jb.Len())
	}
}

// Property: arbitrary synthetic traces survive both codecs byte-exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	gen := func(raw []uint32, label string) *Trace {
		tr := &Trace{Label: label, Seed: 42, End: sim.Time(len(raw)) * 100}
		for i, r := range raw {
			ev := Event{
				Seq:  i,
				T:    sim.Time(r % 1_000_000),
				TID:  int(r%7) + 1,
				Site: SiteID([]string{"x.go:1", "y.go:2", "z.go:3"}[r%3]),
				Obj:  ObjID(r % 13),
				Kind: Kind(r % 5),
				Dur:  sim.Duration(r % 500),
			}
			if r%2 == 0 {
				ev.Clock = vclock.FromSnapshot(ev.TID, []vclock.Entry{{TID: ev.TID, Counter: int64(r%9) + 1}})
			}
			tr.Events = append(tr.Events, ev)
		}
		return tr
	}
	err := quick.Check(func(raw []uint32, label string) bool {
		tr := gen(raw, label)
		var jb, bb bytes.Buffer
		if err := tr.WriteJSON(&jb); err != nil {
			return false
		}
		fromJSON, err := ReadJSON(&jb)
		if err != nil {
			return false
		}
		if err := tr.WriteBinary(&bb); err != nil {
			return false
		}
		fromBin, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		return equalTraces(tr, fromJSON) && equalTraces(tr, fromBin)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}
