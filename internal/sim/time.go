// Package sim implements a deterministic, virtual-time execution substrate
// for concurrency experiments.
//
// A World owns a discrete-event clock and a set of cooperatively scheduled
// Threads (each backed by a goroutine, but only one ever runs at a time — a
// scheduler "baton" is handed from thread to thread over channels).
// Virtual time advances only when every runnable thread has parked, which
// makes runs with the same seed bit-for-bit reproducible while still
// exhibiting realistic interleavings: ties at equal virtual time are
// broken by a seeded RNG, and operation durations carry seeded jitter.
//
// The substrate replaces the physical time that the Waffle paper depends on
// (near-miss windows, delay lengths, overhead ratios are all functions of
// timestamps); every algorithm in this repository consumes sim.Time exactly
// where the paper consumes wall-clock milliseconds.
package sim

import "fmt"

// Time is a point in virtual time, in microseconds since World start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient virtual-time units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Milliseconds reports the duration in (possibly fractional) milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports the duration in (possibly fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration in a compact human-readable unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// String renders the time as a duration offset from world start.
func (t Time) String() string { return Duration(t).String() }
