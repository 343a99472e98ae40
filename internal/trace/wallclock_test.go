package trace

import (
	"bytes"
	"math"
	"testing"
	"time"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// The live runtime stamps events with wall-clock nanoseconds — values far
// beyond any sim.Time the virtual suite produces (a UnixNano is ~1.7e18;
// a long virtual run is ~1e9 ticks). These tests pin that the full int64
// range survives every trace codec unchanged: the varint encodings are
// range-complete by construction, and this keeps them that way.

// wallClockTimes spans the magnitudes that must round-trip: virtual-scale
// ticks, wall-clock durations, absolute UnixNano stamps, the int64
// extremes, and negatives (a clock that steps backwards must corrupt
// nothing, even though waffle-trace -analyze refuses unsorted traces).
func wallClockTimes() []sim.Time {
	return []sim.Time{
		0,
		1,
		sim.Time(100 * time.Millisecond),
		sim.Time(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano()),
		math.MaxInt64 - 1,
		math.MaxInt64,
		-1,
		math.MinInt64 + 1,
		math.MinInt64,
	}
}

// wallClockTrace builds one event per extreme timestamp. Events are in
// slice order (deliberately NOT time-sorted — codecs must not reorder or
// clamp), with clocks on alternating events to cover both arms of the
// clock encoding.
func wallClockTrace() *Trace {
	times := wallClockTimes()
	tr := &Trace{Label: "wallclock", Seed: math.MinInt64, End: math.MaxInt64}
	clk := vclock.New(1)
	for i, ts := range times {
		e := Event{Seq: i, T: ts, TID: 1 + i%2, Site: SiteID("s"), Obj: 1, Kind: KindUse}
		if i%2 == 0 {
			e.Clock = clk
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func assertTimesIntact(t *testing.T, codec string, got *Trace) {
	t.Helper()
	times := wallClockTimes()
	if len(got.Events) != len(times) {
		t.Fatalf("%s: %d events, want %d", codec, len(got.Events), len(times))
	}
	if got.End != math.MaxInt64 {
		t.Errorf("%s: End = %d, want MaxInt64", codec, int64(got.End))
	}
	if got.Seed != math.MinInt64 {
		t.Errorf("%s: Seed = %d, want MinInt64", codec, got.Seed)
	}
	for i, want := range times {
		if got.Events[i].T != want {
			t.Errorf("%s: event %d timestamp = %d, want %d", codec, i, int64(got.Events[i].T), int64(want))
		}
	}
}

func TestWallClockTimestampsSurviveBinary(t *testing.T) {
	tr := wallClockTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertTimesIntact(t, "binary", got)
}

func TestWallClockTimestampsSurviveJSON(t *testing.T) {
	tr := wallClockTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	assertTimesIntact(t, "json", got)
}

// FuzzWallClockTimestamps drives the binary codec with arbitrary int64
// timestamp/end pairs: whatever the values, encode→decode must be the
// identity on them.
func FuzzWallClockTimestamps(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano(), int64(1))
	f.Add(int64(-1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, ts, end int64) {
		tr := &Trace{
			Label: "fz", Seed: ts ^ end, End: sim.Time(end),
			Events: []Event{
				{Seq: 0, T: sim.Time(ts), TID: 1, Site: "s", Obj: 1, Kind: KindInit},
				{Seq: 1, T: sim.Time(end), TID: 2, Site: "u", Obj: 1, Kind: KindUse, Clock: vclock.New(2)},
			},
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary(%d, %d): %v", ts, end, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadBinary(%d, %d): %v", ts, end, err)
		}
		if got.Events[0].T != sim.Time(ts) || got.Events[1].T != sim.Time(end) {
			t.Fatalf("timestamps drifted: got (%d, %d), want (%d, %d)",
				int64(got.Events[0].T), int64(got.Events[1].T), ts, end)
		}
		if got.End != sim.Time(end) || got.Seed != ts^end {
			t.Fatalf("metadata drifted: end %d seed %d", int64(got.End), got.Seed)
		}
	})
}
