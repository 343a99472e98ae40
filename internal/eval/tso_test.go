package eval

import (
	"encoding/json"
	"testing"
)

// TestDifferentialTSOSmoke drives a small store-buffer corpus through the
// differential oracle and asserts the TSO acceptance properties at smoke
// scale, plus harness determinism: same options, byte-identical report.
//
//   - Waffle (flush-delay injection) exposes every planted stale read;
//   - every exposure carries the planted fence pair, the fence repairs
//     the schedule, and the unfenced schedule replays (checked inside
//     diffProgram; any breach lands in Violations);
//   - WaffleBasic's thread delays shift fork-ordered subtrees wholesale
//     and TSVD instruments no API calls here, so neither exposes any;
//   - no disarmed program faults (zero false positives).
func TestDifferentialTSOSmoke(t *testing.T) {
	opt := DiffOptions{Seed: 9191, Programs: 6, Mixed: true, TSO: true, Workers: 2}
	r1 := RunDifferential(opt)
	if len(r1.Violations) > 0 {
		t.Fatalf("violations on TSO smoke corpus: %v", r1.Violations)
	}
	if !r1.ReproOK {
		t.Fatal("reproducibility checks failed")
	}
	if r1.PlantedStale == 0 || r1.PlantedUBI != 0 || r1.PlantedUAF != 0 {
		t.Fatalf("TSO corpus planted %d stale, %d UBI, %d UAF; want stale only",
			r1.PlantedStale, r1.PlantedUBI, r1.PlantedUAF)
	}

	wf, ok := r1.Summary("waffle")
	if !ok || wf.Sessions != r1.PlantedStale {
		t.Fatalf("waffle summary missing or session count mismatch: %+v", wf)
	}
	if wf.Missed != 0 || wf.ExposureRate != 1 {
		t.Errorf("waffle missed %d of %d planted stale reads (rate %.3f), want 100%% exposure",
			wf.Missed, wf.Sessions, wf.ExposureRate)
	}
	for _, name := range []string{"wafflebasic", "tsvd"} {
		s, ok := r1.Summary(name)
		if !ok {
			t.Fatalf("no %s summary", name)
		}
		if s.Exposed != 0 {
			t.Errorf("%s exposed %d stale reads; only visibility delays can expose them", name, s.Exposed)
		}
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
		t.Error("TSO differential report is not deterministic across identical invocations")
	}
}

// TestDifferentialTSOCorpus is the TSO acceptance oracle at full scale:
// a 100-program store-buffer corpus with every planted stale read exposed
// by Waffle, every fence proposal matching its manifest (and verified to
// repair), and zero violations anywhere — disarmed controls included.
func TestDifferentialTSOCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	rep := RunDifferential(DiffOptions{Seed: 2000, Programs: 100, Mixed: true, TSO: true})

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

	wf, ok := rep.Summary("waffle")
	if !ok || wf.Sessions == 0 {
		t.Fatal("no waffle summary")
	}
	if wf.Sessions != rep.PlantedStale {
		t.Errorf("waffle sessions %d != planted stale reads %d", wf.Sessions, rep.PlantedStale)
	}
	if wf.Missed != 0 || wf.ExposureRate != 1 {
		t.Errorf("waffle missed %d of %d planted stale reads (rate %.3f), want 100%% exposure",
			wf.Missed, wf.Sessions, wf.ExposureRate)
	}
	for _, name := range []string{"wafflebasic", "tsvd"} {
		s, _ := rep.Summary(name)
		if s.Exposed != 0 {
			t.Errorf("%s exposed %d stale reads, want 0", name, s.Exposed)
		}
	}
}
