package baselines

import (
	"fmt"
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// racyUAF is a single clean use-after-free candidate with a 2ms gap.
func racyUAF() *core.SimProgram {
	return &core.SimProgram{
		Label: "racy-uaf",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			r := h.NewRef("conn")
			r.Init(root, "init")
			w := root.Spawn("w", func(t *sim.Thread) {
				t.Sleep(1 * sim.Millisecond)
				r.Use(t, "use")
			})
			root.Sleep(3 * sim.Millisecond)
			r.Dispose(root, "disp")
			root.Join(w)
		},
	}
}

func TestSingleDelayValidatesOneCandidatePerRun(t *testing.T) {
	tool := NewSingleDelay(core.Options{})
	s := &core.Session{Prog: racyUAF(), Tool: tool, MaxRuns: 20, BaseSeed: 1}
	out := s.Expose()
	if out.Bug == nil {
		t.Fatal("single-delay never exposed the bug")
	}
	for _, r := range out.Runs[1:] {
		if r.Stats.Count > 1 {
			t.Fatalf("run %d injected %d delays, want ≤1", r.Run, r.Stats.Count)
		}
	}
	if tool.Plan() == nil {
		t.Fatal("no analysis plan")
	}
}

func TestSingleDelayRunsScaleWithCandidates(t *testing.T) {
	// With several candidate pairs but only one real bug, single-delay
	// needs roughly one run per candidate until it hits the right one,
	// while Waffle exposes in its first detection run.
	prog := &core.SimProgram{
		Label: "many-candidates",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			// Four decoy near-miss pairs that never manifest.
			for i := 0; i < 4; i++ {
				d := h.NewRef("decoy")
				var done sim.Event
				i := i
				w := root.Spawn("dw", func(t *sim.Thread) {
					t.Sleep(sim.Duration(1+i) * sim.Millisecond)
					d.UseIfLive(t, siteN("decoy-use", i))
					done.Set(t)
				})
				d.Init(root, siteN("decoy-init", i))
				done.Wait(root)
				d.Dispose(root, siteN("decoy-disp", i))
				root.Join(w)
			}
			// The real bug.
			r := h.NewRef("conn")
			r.Init(root, "init")
			w := root.Spawn("w", func(t *sim.Thread) {
				t.Sleep(1 * sim.Millisecond)
				r.Use(t, "use")
			})
			root.Sleep(3 * sim.Millisecond)
			r.Dispose(root, "disp")
			root.Join(w)
		},
	}
	single := &core.Session{Prog: prog, Tool: NewSingleDelay(core.Options{}), MaxRuns: 30, BaseSeed: 1}
	so := single.Expose()
	waffle := &core.Session{Prog: prog, Tool: core.NewWaffle(core.Options{}), MaxRuns: 30, BaseSeed: 1}
	wo := waffle.Expose()
	if so.Bug == nil || wo.Bug == nil {
		t.Fatalf("exposure failed: single=%v waffle=%v", so.Bug, wo.Bug)
	}
	if so.Bug.Run <= wo.Bug.Run {
		t.Fatalf("single-delay (%d runs) not slower than Waffle (%d runs)", so.Bug.Run, wo.Bug.Run)
	}
}

func siteN(prefix string, i int) trace.SiteID {
	return trace.SiteID(fmt.Sprintf("%s-%d", prefix, i))
}

func TestDataColliderEventuallyExposes(t *testing.T) {
	// Sampling 5% of sites per run with 10ms pauses finds the one-site
	// bug eventually, across many runs.
	tool := NewDataCollider()
	tool.SampleRate = 0.3 // speed the test up: fewer sites to hit
	s := &core.Session{Prog: racyUAF(), Tool: tool, MaxRuns: 80, BaseSeed: 5}
	out := s.Expose()
	if out.Bug == nil {
		t.Fatal("datacollider never exposed the bug in 80 runs")
	}
	// Unlike Waffle, DataCollider has no preparation run: it may get lucky
	// in run 1 or need dozens of runs — any exposing run is acceptable.
}

func TestDataColliderIgnoresAPIKinds(t *testing.T) {
	tool := NewDataCollider()
	tool.SampleRate = 1.0
	prog := &core.SimProgram{
		Label: "api-only",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			d := h.NewRef("dict")
			d.APICall(root, "api", true, 100*sim.Microsecond)
		},
	}
	s := &core.Session{Prog: prog, Tool: tool, MaxRuns: 1, BaseSeed: 1}
	out := s.Expose()
	if out.Runs[0].Stats.Count != 0 {
		t.Fatal("API call was delayed by the MemOrder sampler")
	}
}

func TestDataColliderSamplingIsPerRun(t *testing.T) {
	tool := NewDataCollider()
	tool.SampleRate = 0.5
	prog := racyUAF()
	counts := map[int]int{}
	var prev *core.RunReport
	for run := 1; run <= 6; run++ {
		hook := tool.HookForRun(run, prev)
		res := prog.Execute(int64(run)*13, hook)
		counts[tool.RunStats().Count]++
		prev = &core.RunReport{Run: run, End: res.End}
		if res.Fault != nil {
			break
		}
	}
	if len(counts) < 2 {
		t.Fatalf("sampling identical across runs: %v", counts)
	}
}
