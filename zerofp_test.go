// Regression tests for the zero-false-positive contract (§5): a NULL
// reference fault in a run with zero injected delays cannot be a
// consequence of delay injection, so no tool may claim it as an exposed
// bug. The session must instead surface the fault through RunReport.Fault,
// classify the run RunFaultDelayFree, and list it in
// Outcome.DelayFreeFaults — a flaky program-under-test stays visible
// without being falsely credited to the detector.
package waffle_test

import (
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/tsvd"
	"waffle/internal/wafflebasic"
)

// delayFreeFaulter faults on its very first run with no perturbation: the
// reference is used before anyone initializes it, deterministically. Every
// tool's first run injects nothing (preparation, identification, or an
// empty TSV pair set), so the fault always lands in a delay-free run.
func delayFreeFaulter() *core.SimProgram {
	return &core.SimProgram{
		Label: "delay-free-faulter",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			r := h.NewRef("cfg")
			w := root.Spawn("boot", func(th *sim.Thread) {
				th.Sleep(1 * sim.Millisecond)
				r.Use(th, "boot/use") // never initialized: faults unaided
			})
			root.Join(w)
		},
	}
}

func zeroFPTools() map[string]func() core.Tool {
	return map[string]func() core.Tool{
		"waffle":      func() core.Tool { return core.NewWaffle(core.Options{}) },
		"wafflebasic": func() core.Tool { return wafflebasic.New(core.Options{}) },
		"tsvd":        func() core.Tool { return tsvd.New(tsvd.Options{}) },
	}
}

// checkDelayFreeOutcome asserts the contract on one finished search.
func checkDelayFreeOutcome(t *testing.T, out *core.Outcome) {
	t.Helper()
	if out.Bug != nil {
		t.Fatalf("delay-free fault reported as a bug: %v", out.Bug)
	}
	if len(out.Runs) == 0 {
		t.Fatal("no runs recorded")
	}
	last := out.Runs[len(out.Runs)-1]
	if last.Fault == nil {
		t.Fatal("faulting run lost its Fault record")
	}
	if last.Stats.Count != 0 {
		t.Fatalf("run injected %d delays — scenario not delay-free", last.Stats.Count)
	}
	if last.Outcome != core.RunFaultDelayFree {
		t.Fatalf("run outcome = %v, want %v", last.Outcome, core.RunFaultDelayFree)
	}
	if len(out.DelayFreeFaults) != 1 || out.DelayFreeFaults[0] != last.Run {
		t.Fatalf("DelayFreeFaults = %v, want [%d]", out.DelayFreeFaults, last.Run)
	}
}

func TestDelayFreeFaultYieldsNoBugReport(t *testing.T) {
	for name, mk := range zeroFPTools() {
		t.Run(name, func(t *testing.T) {
			s := &core.Session{Prog: delayFreeFaulter(), Tool: mk(), MaxRuns: 6, BaseSeed: 1}
			checkDelayFreeOutcome(t, s.Expose())
		})
	}
}

func TestDelayFreeFaultYieldsNoBugReportParallel(t *testing.T) {
	for name, mk := range zeroFPTools() {
		t.Run(name, func(t *testing.T) {
			s := &core.Session{Prog: delayFreeFaulter(), Tool: mk(), MaxRuns: 6, BaseSeed: 1}
			checkDelayFreeOutcome(t, s.ExposeParallel(4))
		})
	}
}

// A delay-caused fault must still be reported — the contract suppresses
// only faults no delay could have caused, not real exposures.
func TestDelayCausedFaultStillReported(t *testing.T) {
	racy := &core.SimProgram{
		Label: "racy-init-use",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			r := h.NewRef("listener")
			user := root.Spawn("event", func(th *sim.Thread) {
				th.Sleep(3 * sim.Millisecond)
				r.Use(th, "handler.go:8")
			})
			root.Sleep(1 * sim.Millisecond)
			r.Init(root, "ctor.go:2")
			root.Join(user)
		},
	}
	s := &core.Session{Prog: racy, Tool: core.NewWaffle(core.Options{}), MaxRuns: 10, BaseSeed: 1}
	out := s.Expose()
	if out.Bug == nil {
		t.Fatal("delay-caused fault not reported")
	}
	if out.Bug.Delays.Count == 0 {
		t.Fatal("bug report claims an exposure with zero injected delays")
	}
	if rep := out.Runs[len(out.Runs)-1]; rep.Outcome != core.RunFaultBug {
		t.Fatalf("exposing run outcome = %v, want %v", rep.Outcome, core.RunFaultBug)
	}
	if len(out.DelayFreeFaults) != 0 {
		t.Fatalf("DelayFreeFaults = %v on a delay-caused exposure", out.DelayFreeFaults)
	}
}
