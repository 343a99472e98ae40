package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// The on-disk trace formats. JSON is the human-auditable interchange form;
// the binary form is the compact one the preparation run writes by default
// (traces can reach millions of events on NpgSQL-like workloads).

// jsonTrace mirrors Trace with encodable clock snapshots.
type jsonTrace struct {
	Label  string      `json:"label"`
	Seed   int64       `json:"seed"`
	End    int64       `json:"end_us"`
	Events []jsonEvent `json:"events"`
}

type jsonEvent struct {
	Seq   int            `json:"seq"`
	T     int64          `json:"t_us"`
	TID   int            `json:"tid"`
	Site  string         `json:"site"`
	Obj   int64          `json:"obj"`
	Kind  string         `json:"kind"`
	Dur   int64          `json:"dur_us,omitempty"`
	Own   int            `json:"own,omitempty"`
	Clock []vclock.Entry `json:"clock,omitempty"`
}

// WriteJSON encodes the trace as a single JSON document.
func (t *Trace) WriteJSON(w io.Writer) error {
	jt := jsonTrace{Label: t.Label, Seed: t.Seed, End: int64(t.End), Events: make([]jsonEvent, len(t.Events))}
	for i, e := range t.Events {
		je := jsonEvent{
			Seq: e.Seq, T: int64(e.T), TID: e.TID, Site: string(e.Site),
			Obj: int64(e.Obj), Kind: e.Kind.String(), Dur: int64(e.Dur),
		}
		if e.Clock != nil {
			je.Own = e.Clock.Owner()
			je.Clock = e.Clock.Snapshot()
		}
		jt.Events[i] = je
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jt)
}

// ReadJSON decodes a trace written by WriteJSON. Each event's seq must be
// its position in the events list, as Event.Seq promises; the binary
// codec assigns it from the position and does not store it.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	tr := &Trace{Label: jt.Label, Seed: jt.Seed, End: sim.Time(jt.End), Events: make([]Event, len(jt.Events))}
	for i, je := range jt.Events {
		if je.Seq != i {
			return nil, fmt.Errorf("trace: event %d has seq %d, want its position %d", i, je.Seq, i)
		}
		kind, err := KindFromString(je.Kind)
		if err != nil {
			return nil, err
		}
		ev := Event{
			Seq: je.Seq, T: sim.Time(je.T), TID: je.TID, Site: SiteID(je.Site),
			Obj: ObjID(je.Obj), Kind: kind, Dur: sim.Duration(je.Dur),
		}
		if len(je.Clock) > 0 {
			ev.Clock = vclock.FromSnapshot(je.Own, je.Clock)
		}
		tr.Events[i] = ev
	}
	return tr, nil
}

// Binary format (WFTR):
//
//	magic "WFTR" | uvarint version | label | varint seed | varint end
//	uvarint nSites | sites...        (string table)
//	uvarint nEvents | events...
//
// Each event: uvarint site-index, varints for t/tid/obj, byte kind,
// varint dur, clock (uvarint 0 for none; otherwise uvarint n+1, n tid/ctr
// varint pairs, varint owner). Integers use binary varint encoding;
// strings are uvarint length + bytes.

const (
	binaryMagic = "WFTR"
	// binaryVersion 2 changed the clock encoding: version 1 wrote
	// "uvarint n, entries, owner" for every non-nil clock but readers
	// skipped the owner when n == 0, so an empty-but-non-nil snapshot
	// desynced the stream and every later record decoded as garbage.
	// Version 2 writes 0 for a nil clock and n+1 for a clock with n
	// entries (owner always follows), which is self-delimiting for every
	// clock shape. Version 1 is rejected.
	binaryVersion = 2
)

// ErrBadFormat reports a corrupt or foreign binary trace stream.
var ErrBadFormat = errors.New("trace: bad binary format")

type binWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (bw *binWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(bw.buf[:], v)
	_, err := bw.w.Write(bw.buf[:n])
	return err
}

func (bw *binWriter) varint(v int64) error {
	n := binary.PutVarint(bw.buf[:], v)
	_, err := bw.w.Write(bw.buf[:n])
	return err
}

func (bw *binWriter) str(s string) error {
	if err := bw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := bw.w.WriteString(s)
	return err
}

// clock encodes clk with the version-2 scheme: 0 for nil, count+1 then
// the entries then the owner otherwise. Empty-but-non-nil snapshots stay
// representable and self-delimiting.
func (bw *binWriter) clock(clk *vclock.Clock) error {
	if clk == nil {
		return bw.uvarint(0)
	}
	snap := clk.Snapshot()
	if err := bw.uvarint(uint64(len(snap)) + 1); err != nil {
		return err
	}
	for _, entry := range snap {
		if err := bw.varint(int64(entry.TID)); err != nil {
			return err
		}
		if err := bw.varint(entry.Counter); err != nil {
			return err
		}
	}
	return bw.varint(int64(clk.Owner()))
}

// readClock decodes a clock field written by binWriter.clock.
func readClock(br *bufio.Reader) (*vclock.Clock, error) {
	nClock, err := binary.ReadUvarint(br)
	if err != nil || nClock > math.MaxInt16 {
		return nil, fmt.Errorf("%w: clock size", ErrBadFormat)
	}
	if nClock == 0 {
		return nil, nil
	}
	entries := make([]vclock.Entry, nClock-1)
	for j := range entries {
		etid, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: clock tid", ErrBadFormat)
		}
		ctr, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: clock ctr", ErrBadFormat)
		}
		entries[j] = vclock.Entry{TID: int(etid), Counter: ctr}
	}
	owner, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: clock owner", ErrBadFormat)
	}
	return vclock.FromSnapshot(int(owner), entries), nil
}

// WriteBinary encodes the trace in the compact binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.uvarint(binaryVersion); err != nil {
		return err
	}
	if err := bw.str(t.Label); err != nil {
		return err
	}
	if err := bw.varint(t.Seed); err != nil {
		return err
	}
	if err := bw.varint(int64(t.End)); err != nil {
		return err
	}

	// Site string table.
	siteIdx := make(map[SiteID]uint64)
	var sites []SiteID
	for _, e := range t.Events {
		if _, ok := siteIdx[e.Site]; !ok {
			siteIdx[e.Site] = uint64(len(sites))
			sites = append(sites, e.Site)
		}
	}
	if err := bw.uvarint(uint64(len(sites))); err != nil {
		return err
	}
	for _, s := range sites {
		if err := bw.str(string(s)); err != nil {
			return err
		}
	}

	if err := bw.uvarint(uint64(len(t.Events))); err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := bw.uvarint(siteIdx[e.Site]); err != nil {
			return err
		}
		if err := bw.varint(int64(e.T)); err != nil {
			return err
		}
		if err := bw.varint(int64(e.TID)); err != nil {
			return err
		}
		if err := bw.varint(int64(e.Obj)); err != nil {
			return err
		}
		if err := bw.w.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if err := bw.varint(int64(e.Dur)); err != nil {
			return err
		}
		if err := bw.clock(e.Clock); err != nil {
			return err
		}
	}
	return bw.w.Flush()
}

// ReadBinary decodes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil || version != binaryVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, version)
	}
	label, err := readStr(br)
	if err != nil {
		return nil, err
	}
	seed, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: seed: %v", ErrBadFormat, err)
	}
	end, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: end: %v", ErrBadFormat, err)
	}

	nSites, err := binary.ReadUvarint(br)
	if err != nil || nSites > math.MaxInt32 {
		return nil, fmt.Errorf("%w: site count", ErrBadFormat)
	}
	// Never preallocate from untrusted counts: grow as entries actually
	// decode, so a forged header cannot demand gigabytes up front.
	sites := make([]SiteID, 0, clampCap(nSites))
	for i := uint64(0); i < nSites; i++ {
		s, err := readStr(br)
		if err != nil {
			return nil, err
		}
		sites = append(sites, SiteID(s))
	}

	nEvents, err := binary.ReadUvarint(br)
	if err != nil || nEvents > math.MaxInt32 {
		return nil, fmt.Errorf("%w: event count", ErrBadFormat)
	}
	tr := &Trace{Label: label, Seed: seed, End: sim.Time(end), Events: make([]Event, 0, clampCap(nEvents))}
	for i := 0; i < int(nEvents); i++ {
		siteIdx, err := binary.ReadUvarint(br)
		if err != nil || siteIdx >= nSites {
			return nil, fmt.Errorf("%w: event %d site", ErrBadFormat, i)
		}
		tv, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d time", ErrBadFormat, i)
		}
		tid, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d tid", ErrBadFormat, i)
		}
		obj, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d obj", ErrBadFormat, i)
		}
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: event %d kind", ErrBadFormat, i)
		}
		if Kind(kindByte) > KindAPIWrite {
			return nil, fmt.Errorf("%w: event %d kind %d", ErrBadFormat, i, kindByte)
		}
		dur, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d dur", ErrBadFormat, i)
		}
		clk, err := readClock(br)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		tr.Events = append(tr.Events, Event{
			Seq: i, T: sim.Time(tv), TID: int(tid), Site: sites[siteIdx],
			Obj: ObjID(obj), Kind: Kind(kindByte), Dur: sim.Duration(dur), Clock: clk,
		})
	}
	return tr, nil
}

// clampCap bounds untrusted preallocation hints.
func clampCap(n uint64) int {
	const maxHint = 4096
	if n > maxHint {
		return maxHint
	}
	return int(n)
}

func readStr(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil || n > maxStringLen {
		return "", fmt.Errorf("%w: string length", ErrBadFormat)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadFormat, err)
	}
	return string(buf), nil
}

// maxStringLen bounds label and site strings — far above anything the
// writers emit, far below anything that could stress the allocator.
const maxStringLen = 1 << 20
