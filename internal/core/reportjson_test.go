package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestBugReportJSONRoundTrip(t *testing.T) {
	prog := racyUseDispose()
	s := &Session{Prog: prog, Tool: NewWaffle(Options{}), MaxRuns: 10, BaseSeed: 1}
	out := s.Expose()
	if out.Bug == nil {
		t.Fatal("no bug")
	}
	var buf bytes.Buffer
	if err := out.Bug.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{"use-after-free", "worker.go:11", "stacks", "candidates"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report JSON missing %q:\n%s", want, buf.String())
		}
	}
	back, err := ReadBugReportJSON(&buf)
	if err != nil {
		t.Fatalf("ReadBugReportJSON: %v", err)
	}
	if back.Kind() != out.Bug.Kind() || back.Seed != out.Bug.Seed || back.Run != out.Bug.Run {
		t.Fatalf("identity changed: %+v", back)
	}
	if back.NullRef.Site != out.Bug.NullRef.Site {
		t.Fatalf("fault site changed: %s", back.NullRef.Site)
	}
	if len(back.Candidates) != len(out.Bug.Candidates) {
		t.Fatalf("candidates lost: %d vs %d", len(back.Candidates), len(out.Bug.Candidates))
	}
}

func TestBugReportJSONSupportsReplay(t *testing.T) {
	// A report loaded from JSON must drive the replay harness: the wire
	// format carries seed, fault identity, and candidate pairs.
	prog := racyInitUse()
	s := &Session{Prog: prog, Tool: NewWaffle(Options{}), MaxRuns: 10, BaseSeed: 5}
	out := s.Expose()
	if out.Bug == nil {
		t.Fatal("no bug")
	}
	var buf bytes.Buffer
	if err := out.Bug.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBugReportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Replay(prog, loaded, Options{})
	if !rep.Reproduced {
		t.Fatalf("replay from persisted report failed: %v", rep)
	}
}

func TestReadBugReportJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadBugReportJSON(strings.NewReader("{oops")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadBugReportJSONRejectsUnknownKind(t *testing.T) {
	_, err := ReadBugReportJSON(strings.NewReader(`{"kind": "no-such-kind", "fault": {"ref_state": "disposed"}}`))
	if err == nil || !strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("err = %v, want an error naming the unknown kind", err)
	}
}
