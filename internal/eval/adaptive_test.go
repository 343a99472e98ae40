package eval

import (
	"encoding/json"
	"testing"
	"waffle/internal/server"

	"waffle/internal/control"
	"waffle/internal/obs"
)

// TSVD instruments only thread-unsafe API calls, so it can never expose
// a planted MemOrder bug: every armed TSVD session is a guaranteed miss.
// This regression pins the miss-sentinel rule on exactly that case —
// before the fix, the MaxRuns+1 sentinel leaked into the percentile
// sample and the tsvd summary reported P50 = P90 = P99 = budget+1, a
// "runs-to-exposure" no session ever achieved.
func TestMissSentinelExcludedFromPercentiles(t *testing.T) {
	o := DiffOptions{Corpus: server.CorpusSpec{Seed: 1200, Programs: 4, Size: "mixed"}}
	rep := RunDifferential(o)
	if len(rep.Violations) != 0 {
		t.Fatalf("oracle violations: %v", rep.Violations)
	}
	ts, ok := rep.Summary("tsvd")
	if !ok {
		t.Fatal("no tsvd summary")
	}
	if ts.Sessions == 0 {
		t.Fatal("no armed tsvd sessions in the corpus")
	}
	if ts.Exposed != 0 || ts.Missed != ts.Sessions {
		t.Fatalf("tsvd exposed %d of %d; this test requires guaranteed misses", ts.Exposed, ts.Sessions)
	}
	// Percentiles over exposing sessions only: with zero exposures the
	// sample is empty and every order statistic is 0.
	if ts.P50Runs != 0 || ts.P90Runs != 0 || ts.P99Runs != 0 {
		t.Fatalf("miss sentinel leaked into percentiles: p50=%v p90=%v p99=%v, want all 0",
			ts.P50Runs, ts.P90Runs, ts.P99Runs)
	}
	// The mean DOES keep the sentinel — every session costs budget+1.
	wantMean := float64(o.withDefaults().TSVDRuns + 1)
	if ts.MeanRuns != wantMean {
		t.Fatalf("all-miss mean = %v, want sentinel %v", ts.MeanRuns, wantMean)
	}
	if ts.ExposureRate != 0 {
		t.Fatalf("exposure rate = %v, want 0", ts.ExposureRate)
	}
	// Tools that exposed some bugs must report percentiles bounded by
	// the budget, never the sentinel.
	for _, name := range []string{"waffle", "wafflebasic"} {
		s, _ := rep.Summary(name)
		if s.Exposed > 0 && s.P99Runs > float64(rep.MaxRuns) {
			t.Fatalf("%s p99 = %v exceeds budget %d: sentinel in sample", name, s.P99Runs, rep.MaxRuns)
		}
	}
}

// A nil controller and a Disabled controller must produce byte-identical
// differential reports: the adaptive machinery is invisible until armed.
func TestDisabledControllerReportIdentical(t *testing.T) {
	base := DiffOptions{Corpus: server.CorpusSpec{Seed: 1300, Programs: 4, Size: "mixed"}}

	off := base
	off.Controller = nil
	want := RunDifferential(off)

	dis := base
	dis.Controller = control.New(control.Config{Disabled: true})
	got := RunDifferential(dis)

	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Fatalf("disabled controller changed the report:\n nil: %s\n off: %s", wj, gj)
	}
}

// Adaptive smoke: on a small corpus the controller must preserve the
// exposed-bug set per tool, strictly reduce total runs, add no oracle
// violations, and emit a schema-valid campaign metrics snapshot.
func TestAdaptiveComparisonSmoke(t *testing.T) {
	rep := RunAdaptiveComparison(DiffOptions{Corpus: server.CorpusSpec{Seed: 1000, Programs: 8, Size: "mixed"}}, control.Config{})
	assertAdaptiveReport(t, rep)
}

// Acceptance: the ISSUE-scale corpus. The adaptive sweep must expose the
// same planted-bug set as the fixed harness with strictly fewer total
// runs and zero out-of-manifest reports.
func TestAdaptiveCorpusAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("100-program corpus: skipped in -short")
	}
	rep := RunAdaptiveComparison(DiffOptions{Corpus: server.CorpusSpec{Seed: 1000, Programs: 100, Size: "mixed"}}, control.Config{})
	assertAdaptiveReport(t, rep)
	if len(rep.Retunes) == 0 {
		t.Fatal("controller made no retune decisions over 100 programs")
	}
}

func assertAdaptiveReport(t *testing.T, rep *AdaptiveReport) {
	t.Helper()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if !rep.Parity {
		t.Fatal("adaptive arm lost exposures (parity=false) yet reported no violations")
	}
	if rep.Adaptive.Exposed != rep.Fixed.Exposed {
		t.Fatalf("adaptive exposed %d, fixed exposed %d", rep.Adaptive.Exposed, rep.Fixed.Exposed)
	}
	if rep.RunsSaved <= 0 {
		t.Fatalf("adaptive used %d runs vs fixed %d: no savings", rep.Adaptive.TotalRuns, rep.Fixed.TotalRuns)
	}
	if rep.Metrics == nil {
		t.Fatal("no campaign metrics snapshot")
	}
	if err := obs.ValidateSnapshot(rep.Metrics); err != nil {
		t.Fatalf("campaign snapshot fails schema validation: %v", err)
	}
	if rep.Metrics.Counters["control.runs_total"] == 0 {
		t.Fatal("campaign snapshot recorded no runs")
	}
	// Per-arm sanity: armed waffle sessions must have exposed something in
	// both arms, and the tsvd guaranteed-miss shape must hold in both.
	for _, arm := range []AdaptiveArm{rep.Fixed, rep.Adaptive} {
		for _, s := range arm.Tools {
			if s.Tool == "waffle" && s.Exposed == 0 {
				t.Fatal("waffle exposed nothing")
			}
			if s.Tool == "tsvd" && (s.Exposed != 0 || s.P99Runs != 0) {
				t.Fatalf("tsvd summary %+v: want all-miss with 0 percentiles", s)
			}
		}
	}
}
