package eval

import (
	"encoding/json"
	"testing"
)

// TestDifferentialSmoke runs a small mixed corpus twice and asserts the
// harness itself is deterministic: same options, byte-identical report.
func TestDifferentialSmoke(t *testing.T) {
	opt := DiffOptions{Seed: 4242, Programs: 6, Mixed: true, Workers: 2}
	r1 := RunDifferential(opt)
	if len(r1.Violations) > 0 {
		t.Fatalf("violations on smoke corpus: %v", r1.Violations)
	}
	if !r1.ReproOK {
		t.Fatal("reproducibility checks failed")
	}
	r2 := RunDifferential(opt)
	b1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("differential report is not deterministic across identical invocations")
	}
}

// TestDifferentialCorpus is the acceptance oracle of the generator +
// harness pipeline, on a 100-program mixed corpus:
//
//   - Waffle exposes every planted bug within the run budget;
//   - no tool ever reports a bug outside the ground-truth manifest, and
//     no disarmed program faults (zero false positives);
//   - Waffle needs no more runs on average than WaffleBasic (misses
//     count as MaxRuns+1);
//   - TSVD, which instruments only thread-unsafe API calls, exposes no
//     planted memory-ordering bug at all;
//   - every program regenerated, re-traced, and re-analyzed
//     bit-identically.
func TestDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	rep := RunDifferential(DiffOptions{Seed: 1000, Programs: 100, Mixed: true})

	if len(rep.Violations) > 0 {
		n := len(rep.Violations)
		if n > 10 {
			rep.Violations = rep.Violations[:10]
		}
		t.Fatalf("%d oracle violations, first %d: %v", n, len(rep.Violations), rep.Violations)
	}
	if !rep.ReproOK {
		t.Error("reproducibility checks failed")
	}
	if rep.PlantedUBI == 0 || rep.PlantedUAF == 0 {
		t.Errorf("corpus not mixed-kind: %d UBI, %d UAF", rep.PlantedUBI, rep.PlantedUAF)
	}

	wf, ok := rep.Summary("waffle")
	if !ok || wf.Sessions == 0 {
		t.Fatal("no waffle summary")
	}
	if wf.Sessions != rep.PlantedUBI+rep.PlantedUAF {
		t.Errorf("waffle sessions %d != planted bugs %d", wf.Sessions, rep.PlantedUBI+rep.PlantedUAF)
	}
	if wf.Missed != 0 || wf.ExposureRate != 1 {
		t.Errorf("waffle missed %d of %d planted bugs (rate %.3f), want 100%% exposure",
			wf.Missed, wf.Sessions, wf.ExposureRate)
	}

	basic, ok := rep.Summary("wafflebasic")
	if !ok || basic.Sessions != wf.Sessions {
		t.Fatalf("wafflebasic summary missing or session count mismatch: %+v", basic)
	}
	if wf.MeanRuns > basic.MeanRuns {
		t.Errorf("waffle mean runs-to-exposure %.2f exceeds wafflebasic's %.2f",
			wf.MeanRuns, basic.MeanRuns)
	}
	if wf.P50Runs > basic.P50Runs || wf.P99Runs > basic.P99Runs {
		t.Errorf("waffle percentiles (p50 %.0f, p99 %.0f) exceed wafflebasic's (p50 %.0f, p99 %.0f)",
			wf.P50Runs, wf.P99Runs, basic.P50Runs, basic.P99Runs)
	}

	ts, ok := rep.Summary("tsvd")
	if !ok || ts.Sessions != wf.Sessions {
		t.Fatalf("tsvd summary missing or session count mismatch: %+v", ts)
	}
	if ts.Exposed != 0 {
		t.Errorf("tsvd exposed %d memory-ordering bugs; its API-call instrumentation should expose none", ts.Exposed)
	}
}
