package trace

import (
	"bytes"
	"testing"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// chunkCrossingTrace records enough interleaved multi-thread events that
// every shard seals at least one chunk and the merge has to interleave
// chunks from three shards. Used both by the merge tests and as a fuzz
// corpus seed for the codecs.
func chunkCrossingTrace() *Trace {
	rec := NewRecorder("chunked/merge", 9)
	clocks := map[int]*vclock.Clock{1: vclock.New(1), 2: vclock.New(2), 3: vclock.New(3)}
	sites := []SiteID{"a.go:1", "b.go:2", "c.go:3", "d.go:4"}
	n := 3*shardChunkEvents + 37 // ≥1 sealed chunk per shard, ragged tail
	for i := 0; i < n; i++ {
		tid := 1 + i%3
		rec.RecordEvent(Event{
			T:     sim.Time(i),
			TID:   tid,
			Site:  sites[i%len(sites)],
			Obj:   ObjID(i % 5),
			Kind:  Kind(i % 5),
			Dur:   sim.Duration(i % 3),
			Clock: clocks[tid],
		})
	}
	return rec.Finish(sim.Time(n))
}

// The chunked recorder must reproduce the exact event sequence a single
// append-grown recorder would have: same order, dense Seq, same bytes
// through the codecs.
func TestRecorderChunkMergePreservesRecordOrder(t *testing.T) {
	clocks := map[int]*vclock.Clock{1: vclock.New(1), 2: vclock.New(2), 3: vclock.New(3)}
	sites := []SiteID{"a.go:1", "b.go:2", "c.go:3", "d.go:4"}
	n := 3*shardChunkEvents + 37

	rec := NewRecorder("chunked/merge", 9)
	want := &Trace{Label: "chunked/merge", Seed: 9, End: sim.Time(n)}
	for i := 0; i < n; i++ {
		tid := 1 + i%3
		e := Event{
			T:     sim.Time(i),
			TID:   tid,
			Site:  sites[i%len(sites)],
			Obj:   ObjID(i % 5),
			Kind:  Kind(i % 5),
			Dur:   sim.Duration(i % 3),
			Clock: clocks[tid],
		}
		rec.RecordEvent(e)
		e.Seq = len(want.Events) // the old recorder's append-order stamping
		want.Events = append(want.Events, e)
	}
	if got := rec.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	got := rec.Finish(sim.Time(n))
	if !equalTraces(got, want) {
		t.Fatal("merged trace differs from append-order reference")
	}
	for i, e := range got.Events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}

	var a, b bytes.Buffer
	if err := got.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("binary encoding differs from append-order reference")
	}
}

func TestRecorderFinishEmpty(t *testing.T) {
	got := NewRecorder("empty", 1).Finish(0)
	if got.Events != nil {
		t.Fatalf("empty recorder produced non-nil Events (len %d)", len(got.Events))
	}
	if got.Label != "empty" || got.Seed != 1 {
		t.Fatalf("metadata lost: %+v", got)
	}
}

func TestRecorderRecordAfterFinishPanics(t *testing.T) {
	rec := NewRecorder("reuse", 1)
	rec.RecordEvent(Event{T: 1, TID: 1, Site: "a.go:1"})
	rec.Finish(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Record after Finish did not panic")
		}
	}()
	rec.RecordEvent(Event{T: 3, TID: 1, Site: "a.go:1"})
}

func TestRecorderFinishTwicePanics(t *testing.T) {
	rec := NewRecorder("reuse", 1)
	rec.Finish(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish did not panic")
		}
	}()
	rec.Finish(2)
}

// The recording hot path must not allocate per event: only a fresh chunk
// every shardChunkEvents appends, which amortizes to ~0.001 allocs/event.
func TestRecorderHotPathZeroAllocs(t *testing.T) {
	rec := NewRecorder("alloc", 1)
	clk := vclock.New(1)
	ev := Event{T: 0, TID: 1, Site: "a.go:1", Obj: 1, Kind: KindUse, Clock: clk}
	rec.RecordEvent(ev) // warm-up: shard map, shard, first chunk
	const runs = 2000
	avg := testing.AllocsPerRun(runs, func() {
		ev.T++
		rec.RecordEvent(ev)
	})
	// runs events can seal at most ⌈runs/chunk⌉+1 chunks.
	if limit := float64(runs/shardChunkEvents+1) / runs; avg > limit {
		t.Fatalf("hot path allocates %.4f allocs/event, want ≤ %.4f", avg, limit)
	}
}

func TestShardAppendTo(t *testing.T) {
	var s Shard
	n := shardChunkEvents + 3
	for i := 0; i < n; i++ {
		s.Append(Event{Seq: i, T: sim.Time(i), TID: 1, Obj: ObjID(i)})
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	out := s.AppendTo(nil)
	if len(out) != n {
		t.Fatalf("AppendTo yielded %d events, want %d", len(out), n)
	}
	for i, e := range out {
		if e.Seq != i || e.Obj != ObjID(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}
