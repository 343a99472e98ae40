package core

import (
	"testing"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
)

// recordingTuner scripts decisions per run number and records the
// contexts it saw.
type recordingTuner struct {
	decisions map[int]TuneDecision
	seen      []TuneContext
}

func (rt *recordingTuner) TuneRun(ctx TuneContext) TuneDecision {
	rt.seen = append(rt.seen, ctx)
	return rt.decisions[ctx.Run]
}

// cleanProg never faults, so sessions exhaust whatever budget the tuner
// leaves them.
func cleanProg() *SimProgram {
	return &SimProgram{
		Label: "tune-clean",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			r := h.NewRef("r")
			r.Init(root, "init.go:1")
			w := root.Spawn("w", func(th *sim.Thread) {
				th.Sleep(1 * sim.Millisecond)
				r.Use(th, "use.go:1")
			})
			root.Join(w)
		},
	}
}

func TestTunerStopEndsSession(t *testing.T) {
	rt := &recordingTuner{decisions: map[int]TuneDecision{3: {Stop: true}}}
	s := &Session{Prog: cleanProg(), Tool: NewWaffle(Options{}), MaxRuns: 10, BaseSeed: 1, Tuner: rt}
	out := s.Expose()
	if len(out.Runs) != 2 {
		t.Fatalf("performed %d runs, want 2 (stopped before run 3)", len(out.Runs))
	}
	// Boundary contexts: run 1 has no prev and prep pending; run 2's prev
	// is the preparation run (not a detection run); run 3's prev is run 2,
	// a detection run.
	if len(rt.seen) != 3 {
		t.Fatalf("tuner consulted %d times, want 3", len(rt.seen))
	}
	if rt.seen[0].Prev != nil || rt.seen[0].PrevDetection {
		t.Error("run-1 boundary should have nil Prev and PrevDetection=false")
	}
	if rt.seen[1].Prev == nil || rt.seen[1].PrevDetection {
		t.Error("run-2 boundary: Prev is the prep run, PrevDetection must be false")
	}
	if !rt.seen[2].PrevDetection {
		t.Error("run-3 boundary: Prev is a detection run, PrevDetection must be true")
	}
	if !rt.seen[2].Retunable {
		t.Error("Waffle must report Retunable")
	}
	if rt.seen[0].LiveSites != -1 {
		t.Errorf("pre-plan LiveSites = %d, want -1 (unknown)", rt.seen[0].LiveSites)
	}
	if rt.seen[2].LiveSites < 0 {
		t.Errorf("post-plan LiveSites = %d, want >= 0", rt.seen[2].LiveSites)
	}
}

func TestTunerShrinksBudget(t *testing.T) {
	rt := &recordingTuner{decisions: map[int]TuneDecision{2: {MaxRuns: 4}}}
	s := &Session{Prog: cleanProg(), Tool: NewWaffle(Options{}), MaxRuns: 20, BaseSeed: 1, Tuner: rt}
	out := s.Expose()
	if len(out.Runs) != 4 {
		t.Fatalf("performed %d runs, want 4 after budget shrink", len(out.Runs))
	}
}

func TestTunerRetunesOptionsAtBoundary(t *testing.T) {
	tool := NewWaffle(Options{})
	want := tool.CurrentOptions()
	want.Alpha = 1.99
	want.Decay = 0.33
	rt := &recordingTuner{decisions: map[int]TuneDecision{3: {Opts: &want}}}
	s := &Session{Prog: cleanProg(), Tool: tool, MaxRuns: 4, BaseSeed: 1, Tuner: rt}
	s.Expose()
	got := tool.CurrentOptions()
	if got.Alpha != 1.99 || got.Decay != 0.33 {
		t.Fatalf("options after retune: alpha=%v decay=%v, want 1.99/0.33", got.Alpha, got.Decay)
	}
	// The boundary after the retune must see the new options.
	last := rt.seen[len(rt.seen)-1]
	if last.Opts.Alpha != 1.99 {
		t.Fatalf("boundary after retune saw alpha=%v", last.Opts.Alpha)
	}
}

// A tuner that decides nothing must not change what the session finds or
// how many runs it takes.
func TestPassiveTunerPreservesOutcome(t *testing.T) {
	base := &Session{Prog: racyInitUse(), Tool: NewWaffle(Options{}), MaxRuns: 10, BaseSeed: 1}
	want := base.Expose()
	tuned := &Session{Prog: racyInitUse(), Tool: NewWaffle(Options{}), MaxRuns: 10, BaseSeed: 1,
		Tuner: &recordingTuner{}}
	got := tuned.Expose()
	if got.RunsToExpose() != want.RunsToExpose() {
		t.Fatalf("runs-to-expose %d with passive tuner, %d without", got.RunsToExpose(), want.RunsToExpose())
	}
	if (got.Bug == nil) != (want.Bug == nil) {
		t.Fatal("bug presence differs under passive tuner")
	}
	if got.Bug != nil && got.Bug.Seed != want.Bug.Seed {
		t.Fatalf("exposing seed %d with passive tuner, %d without", got.Bug.Seed, want.Bug.Seed)
	}
}
