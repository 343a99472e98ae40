package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waffle/internal/sim"
	"waffle/internal/trace"
)

// writeTrace writes events, in the given order, as a binary trace file.
func writeTrace(t *testing.T, events ...trace.Event) string {
	t.Helper()
	tr := &trace.Trace{Label: "cli", Events: events}
	for i := range tr.Events {
		tr.Events[i].Seq = i
		if tr.Events[i].T > tr.End {
			tr.End = tr.Events[i].T
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prep.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func at(ms int, tid int, site trace.SiteID, kind trace.Kind) trace.Event {
	return trace.Event{T: sim.Time(ms) * sim.Time(sim.Millisecond), TID: tid, Site: site, Obj: 1, Kind: kind}
}

// TestAnalyzeRefusesUnsortedTrace pins the -analyze guard: the far event
// would end pass 1's scan before the in-window use, so analyzing this
// order would report no pairs. The command must refuse it instead, naming
// the first event whose timestamp decreases.
func TestAnalyzeRefusesUnsortedTrace(t *testing.T) {
	path := writeTrace(t,
		at(0, 1, "ctor", trace.KindInit),
		at(200, 2, "far", trace.KindUse),
		at(50, 2, "use", trace.KindUse),
	)
	plan, err := analyze(path, 100*sim.Millisecond)
	if err == nil {
		t.Fatalf("unsorted trace analyzed into %d pairs, want an error", len(plan.Pairs))
	}
	if !strings.Contains(err.Error(), "event 2 at 50.000ms is earlier than event 1 at 200.000ms") {
		t.Fatalf("error %q does not name the first decreasing event", err)
	}
}

// TestAnalyzeSortedTrace checks the same events in time order: the
// ctor -> use near miss is found, and the injection site is listed with
// len(ℓ), the 50 ms gap.
func TestAnalyzeSortedTrace(t *testing.T) {
	path := writeTrace(t,
		at(0, 1, "ctor", trace.KindInit),
		at(50, 2, "use", trace.KindUse),
		at(200, 2, "far", trace.KindUse),
	)
	plan, err := analyze(path, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printPlan(&out, plan)
	for _, want := range []string{"candidate set S: 1 pairs", "{ctor -> use}", "len=50.000ms"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}
