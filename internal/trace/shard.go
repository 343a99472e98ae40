package trace

import "sync/atomic"

// Chunk sizes of a Shard. A shard opens with a shardFirstEvents chunk and
// doubles it up to shardChunkEvents, so a short run (a generated program
// records ~60 events) allocates a few KiB rather than one full chunk. At
// 1024 events a chunk is ~72 KiB on 64-bit platforms: large enough that
// the amortized allocation cost of recording drops to ~1/1024 allocs per
// event.
const (
	shardFirstEvents = 64
	shardChunkEvents = 1024
)

// Shard is a single-writer chunked event buffer: the building block of the
// Recorder and of the live runtime's per-goroutine trace shards. Events are
// appended into chunks; once a full-size chunk fills it is sealed and a
// fresh one is allocated, so the steady-state cost of Append is one slot
// store — no per-event allocation and no grow-by-copy of previously
// recorded events (the failure mode of a single append-grown slice, which
// re-copies the whole history every doubling). Only the open chunk is ever
// copied, while it grows towards full size.
//
// Clock pointers are stored as-is: vclock.Clock is immutable, so sharing
// the pointer across every event a thread records between two forks is
// safe and keeps chunks compact.
//
// A Shard must only be appended to by one writer at a time; merging
// (AppendTo) may happen on another thread once the writer has stopped. The
// zero value is an empty shard ready for use.
//
// Seal marks the shard closed from ANY goroutine: the writer's subsequent
// Appends are dropped (counted via OnDrop) instead of recorded. This is
// the abandonment fence for timed-out live runs, whose leaked goroutines
// cannot be killed but must not keep feeding events into a shard the
// detector has walked away from.
type Shard struct {
	full [][]Event // sealed chunks, each exactly shardChunkEvents long
	cur  []Event   // open chunk being filled; cap grows to shardChunkEvents

	// OnDrop, when non-nil, is called once per event dropped after Seal
	// (from the — possibly leaked — writer goroutine). Set it before the
	// shard is shared and never change it afterwards.
	OnDrop func()

	// sealed is the cross-goroutine abandonment flag; dropped counts the
	// appends that arrived after it was raised.
	sealed  atomic.Bool
	dropped atomic.Int64
}

// Append records one event. Amortized zero-allocation: past the first
// shardChunkEvents events only every shardChunkEvents-th call allocates (a
// fresh chunk). It reports whether the event was recorded — false once the
// shard has been Sealed, in which case the event is dropped and counted
// instead.
func (s *Shard) Append(e Event) bool {
	if s.sealed.Load() {
		s.dropped.Add(1)
		if s.OnDrop != nil {
			s.OnDrop()
		}
		return false
	}
	if len(s.cur) == cap(s.cur) {
		s.nextChunk()
	}
	s.cur = append(s.cur, e)
	return true
}

// nextChunk makes room in a full open chunk: below full size it doubles;
// at full size the chunk is sealed and a fresh full-size one opens.
func (s *Shard) nextChunk() {
	if cap(s.cur) < shardChunkEvents {
		size := shardFirstEvents
		if s.cur != nil {
			size = 2 * cap(s.cur)
		}
		s.cur = append(make([]Event, 0, size), s.cur...)
		return
	}
	s.full = append(s.full, s.cur)
	s.cur = make([]Event, 0, shardChunkEvents)
}

// Seal closes the shard: every later Append is dropped (and counted)
// rather than recorded. Unlike every other method, Seal is safe to call
// from a goroutine other than the writer — it is the abandonment fence a
// timed-out run's detector raises while the run's leaked goroutines may
// still be executing. An in-flight Append racing the Seal may still land;
// sealing guarantees only that the drop window opens within one event.
func (s *Shard) Seal() { s.sealed.Store(true) }

// Sealed reports whether the shard has been sealed.
func (s *Shard) Sealed() bool { return s.sealed.Load() }

// Dropped reports how many appends were dropped after Seal.
func (s *Shard) Dropped() int64 { return s.dropped.Load() }

// Len reports the number of events the shard holds.
func (s *Shard) Len() int {
	return len(s.full)*shardChunkEvents + len(s.cur)
}

// AppendTo copies the shard's events, in append order, onto dst and
// returns the extended slice. The shard itself is not modified.
func (s *Shard) AppendTo(dst []Event) []Event {
	for _, c := range s.full {
		dst = append(dst, c...)
	}
	return append(dst, s.cur...)
}
