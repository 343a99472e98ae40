package trace

import (
	"sync"
	"testing"
)

// TestShardSealDropsAppends checks the abandonment fence: after Seal,
// appends are dropped, counted, and reported through OnDrop; events
// recorded before the seal stay intact.
func TestShardSealDropsAppends(t *testing.T) {
	var s Shard
	var dropped int
	s.OnDrop = func() { dropped++ }

	for i := 0; i < 10; i++ {
		if !s.Append(Event{Seq: i}) {
			t.Fatalf("Append %d rejected before seal", i)
		}
	}
	if s.Sealed() {
		t.Fatal("shard sealed before Seal()")
	}
	s.Seal()
	if !s.Sealed() {
		t.Fatal("Sealed() = false after Seal()")
	}
	for i := 0; i < 7; i++ {
		if s.Append(Event{Seq: 100 + i}) {
			t.Fatalf("Append %d accepted after seal", i)
		}
	}
	if got := s.Dropped(); got != 7 {
		t.Fatalf("Dropped() = %d, want 7", got)
	}
	if dropped != 7 {
		t.Fatalf("OnDrop fired %d times, want 7", dropped)
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len() = %d after sealed appends, want 10", got)
	}
	evs := s.AppendTo(nil)
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d — post-seal event leaked in", i, e.Seq)
		}
	}
}

// TestShardSealRace runs a writer appending flat-out while another
// goroutine seals the shard mid-stream. Under -race this is the regression
// test for the leaked-goroutine abandonment fence: the sealer and the
// writer only share atomics, so the race detector must stay quiet, and
// every recorded event must predate (or at most overlap by the one
// documented in-flight append) the seal.
func TestShardSealRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		var s Shard
		start := make(chan struct{})
		done := make(chan struct{})
		var accepted int
		go func() {
			defer close(done)
			<-start
			for i := 0; ; i++ {
				if !s.Append(Event{Seq: i}) {
					return // sealed: leaked writer gives up
				}
				accepted++
			}
		}()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Seal()
		}()
		close(start)
		wg.Wait()
		<-done
		if got := s.Len(); got != accepted {
			t.Fatalf("iter %d: Len() = %d, writer recorded %d", iter, got, accepted)
		}
		if s.Dropped() != 1 {
			t.Fatalf("iter %d: Dropped() = %d, want exactly 1 (the append that observed the seal)", iter, s.Dropped())
		}
	}
}

// TestShardGrowsFirstChunk pins the chunk sizes: a shard opens with
// shardFirstEvents slots and doubles its open chunk up to shardChunkEvents
// before it seals any, so a short run allocates a small chunk.
func TestShardGrowsFirstChunk(t *testing.T) {
	var s Shard
	for i := 0; i < shardChunkEvents+1; i++ {
		s.Append(Event{Seq: i})
		want := shardFirstEvents
		for want < i+1 {
			want *= 2
		}
		if i >= shardChunkEvents {
			want = shardChunkEvents
		}
		if got := cap(s.cur); got != want {
			t.Fatalf("after %d events the open chunk holds %d, want %d", i+1, got, want)
		}
	}
	if len(s.full) != 1 || len(s.full[0]) != shardChunkEvents || len(s.cur) != 1 {
		t.Fatalf("sealed %d chunks and %d open events, want one full chunk and 1", len(s.full), len(s.cur))
	}
	for i, e := range s.AppendTo(nil) {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}
