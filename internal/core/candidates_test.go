package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"waffle/internal/apps"
	"waffle/internal/core"
)

// TestNoPrepReportsAreReproducible runs the no-preparation-run ablation 50
// times on a bug whose report lists two candidate pairs and requires every
// report, text and JSON, to be byte-identical: the online engine lists a
// site's candidates in plan order, never in map order.
func TestNoPrepReportsAreReproducible(t *testing.T) {
	var test *apps.Test
	for _, b := range apps.AllBugs() {
		if b.Name == "ApplicationInsights/Bug-10" {
			test = b
		}
	}
	if test == nil {
		t.Fatal("ApplicationInsights/Bug-10 not in the registry")
	}
	var first []byte
	for i := 0; i < 50; i++ {
		s := &core.Session{Prog: test.Prog, Tool: core.NewWaffle(core.Options{DisablePrepRun: true}), MaxRuns: core.DefaultMaxRuns, BaseSeed: 1}
		out := s.Expose()
		if out.Bug == nil {
			t.Fatalf("session %d exposed nothing", i)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s\n", out.Bug)
		if err := out.Bug.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if n := len(out.Bug.Candidates); n < 2 {
				t.Fatalf("report lists %d candidates, want at least 2 to order", n)
			}
			first = b.Bytes()
		} else if !bytes.Equal(b.Bytes(), first) {
			t.Fatalf("session %d wrote a different report:\n%s\nsession 0 wrote:\n%s", i, b.Bytes(), first)
		}
	}
}
