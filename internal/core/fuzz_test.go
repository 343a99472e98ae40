package core

import (
	"bytes"
	"io"
	"testing"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Fuzz targets for the plan and bug-report decoders, which read files from
// outside the program (`waffle -plan`, `waffle -report`, waffle-repro).
// Arbitrary bytes must never panic them, and anything they accept must
// settle after one pass: decode → WriteJSON → decode → WriteJSON repeats
// the first encoding byte for byte. Run with
// `go test -fuzz=FuzzReadPlanJSON ./internal/core` for coverage-guided
// exploration; in normal test mode the seed corpus runs.

// exposed runs Waffle over racyUseDispose until it exposes the bug, so the
// seeds are the codecs' output for a real plan and a real report.
func exposed(f *testing.F) (*Plan, *BugReport) {
	f.Helper()
	tool := NewWaffle(Options{})
	out := (&Session{Prog: racyUseDispose(), Tool: tool, MaxRuns: 10, BaseSeed: 1}).Expose()
	if out.Bug == nil || tool.Plan() == nil {
		f.Fatal("racy-use-dispose not exposed")
	}
	return tool.Plan(), out.Bug
}

// encoded returns v's WriteJSON output.
func encoded[T interface{ WriteJSON(io.Writer) error }](f *testing.F, v T) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := v.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// settles checks that v, decoded from fuzz input, re-encodes to a fixed
// point: encoding the decode of its first encoding repeats that encoding.
func settles[T interface{ WriteJSON(io.Writer) error }](t *testing.T, v T, decode func(io.Reader) (T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := v.WriteJSON(&first); err != nil {
		t.Fatalf("encode accepted input: %v", err)
	}
	back, err := decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode own encoding: %v\n%s", err, first.Bytes())
	}
	if err := back.WriteJSON(&second); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("encoding did not settle:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
	}
}

func FuzzReadPlanJSON(f *testing.F) {
	plan, _ := exposed(f)
	f.Add(encoded(f, plan))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"pairs":null,"delay_len":null,"interfere":{"a":null,"b":["c","a","c"]},"probs":{"a":-0}}`))
	f.Add([]byte(`{"label":"x","pairs":[{"delay":"a","target":"b","kind":9,"gap_us":-1}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlanJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		settles(t, p, ReadPlanJSON)
	})
}

func FuzzReadBugReportJSON(f *testing.F) {
	_, bug := exposed(f)
	f.Add(encoded(f, bug))
	// A stale-read report, the TSO wire form with its fence proposal.
	stale := &memmodel.StaleReadError{
		Obj: 3, Name: "cfg", Site: "reader/use",
		Observed: memmodel.StateNil, Coherent: memmodel.StateLive,
		PendingSite: "boot/init", PendingKind: trace.KindInit, PendingTID: 1,
		VisibleAt: sim.Time(5 * sim.Millisecond),
	}
	f.Add(encoded(f, &BugReport{
		Program: "stale", Tool: "waffle", Run: 2, Seed: 2,
		Fault: &sim.Fault{Err: stale, Thread: 2, Name: "reader", T: sim.Time(2 * sim.Millisecond)},
		Stale: stale, Fence: &FenceProposal{After: "boot/init", Before: "reader/use"},
		Delays: DelayStats{Count: 1, Total: sim.Millisecond},
	}))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"use-after-free","fence":{"after":"a","before":"b"},"fault":{"ref_state":"bogus","stacks":null}}`))
	f.Add([]byte(`{"kind":"stale-read","fault":{"pending_kind":"bogus","pending_tid":-1}}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBugReportJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		settles(t, b, ReadBugReportJSON)
	})
}
