package trace

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// Regression tests for the empty-snapshot clock desync: the version-1
// codecs wrote "uvarint n, entries, owner" for every non-nil clock but
// skipped the owner on read when n == 0, so an event carrying an
// empty-but-non-nil clock shifted every later field by one varint. The
// version-2 encoding (0 = nil, n+1 = n entries then owner) is
// self-delimiting for every clock shape; these tests pin that down.

// emptyClockTrace builds a trace whose first event carries an
// empty-but-non-nil clock, followed by ordinary events that would decode
// as garbage if the clock field desynced the stream.
func emptyClockTrace() *Trace {
	return &Trace{
		Label: "empty/clock",
		Seed:  11,
		End:   sim.Time(9 * sim.Millisecond),
		Events: []Event{
			{Seq: 0, T: sim.Time(1 * sim.Millisecond), TID: 1, Site: "a.go:1", Obj: 1, Kind: KindInit,
				Clock: vclock.FromSnapshot(7, nil)},
			{Seq: 1, T: sim.Time(2 * sim.Millisecond), TID: 2, Site: "a.go:2", Obj: 1, Kind: KindUse,
				Clock: vclock.FromSnapshot(2, []vclock.Entry{{TID: 1, Counter: 2}, {TID: 2, Counter: 1}})},
			{Seq: 2, T: sim.Time(3 * sim.Millisecond), TID: 1, Site: "a.go:3", Obj: 1, Kind: KindDispose,
				Clock: nil},
		},
	}
}

func TestBinaryRoundTripEmptyClockSnapshot(t *testing.T) {
	want := emptyClockTrace()
	var buf bytes.Buffer
	if err := want.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !equalTraces(want, got) {
		t.Fatal("empty-clock trace did not round-trip event-for-event")
	}
	// The empty snapshot must survive as non-nil with its owner — not be
	// collapsed into "no clock".
	if got.Events[0].Clock == nil {
		t.Fatal("empty-but-non-nil clock decoded as nil")
	}
	if own := got.Events[0].Clock.Owner(); own != 7 {
		t.Fatalf("empty clock owner = %d, want 7", own)
	}
	if n := got.Events[0].Clock.Len(); n != 0 {
		t.Fatalf("empty clock has %d entries", n)
	}
}

// emptyBinaryTrace assembles a complete WFTR file with no sites and no
// events under the given format version. Writes to a bytes.Buffer cannot
// fail, so errors are ignored.
func emptyBinaryTrace(version uint64) []byte {
	var buf bytes.Buffer
	bw := &binWriter{w: bufio.NewWriter(&buf)}
	bw.w.WriteString(binaryMagic)
	bw.uvarint(version)
	bw.str("empty/bin")
	bw.varint(3)  // seed
	bw.varint(0)  // end
	bw.uvarint(0) // sites
	bw.uvarint(0) // events
	bw.w.Flush()
	return buf.Bytes()
}

// TestBinaryRejectsVersion1 pins that the reader accepts only the current
// clock encoding: a version-1 file is refused as ErrBadFormat, while the
// same bytes under the current version decode.
func TestBinaryRejectsVersion1(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(emptyBinaryTrace(binaryVersion))); err != nil {
		t.Fatalf("current-version trace rejected: %v", err)
	}
	_, err := ReadBinary(bytes.NewReader(emptyBinaryTrace(1)))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("version-1 trace: err = %v, want ErrBadFormat", err)
	}
}
