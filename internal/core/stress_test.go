package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Randomized stress: generate arbitrary guarded multithreaded programs and
// assert the detector's two core guarantees across them:
//
//  1. No false positives — a program whose every cross-thread access is
//     guarded (or genuinely synchronized) never yields a BugReport, no
//     matter what the injector does (§6.4 "False positives: Waffle has
//     none").
//  2. Exposure — planting one unguarded racy pair with an in-window gap
//     makes Waffle expose it in the vast majority of generated programs.

// stressProgram builds a random program: `threads` workers churn a shared
// object population with guarded uses and owner-only lifecycles. When
// plant is true, one extra unguarded use/dispose race is inserted.
func stressProgram(seed int64, plant bool) *SimProgram {
	rng := rand.New(rand.NewSource(seed))
	threads := 2 + rng.Intn(3)
	objs := 2 + rng.Intn(4)
	ops := 2 + rng.Intn(4)
	spacing := sim.Duration(200+rng.Intn(2000)) * sim.Microsecond
	plantAt := sim.Duration(2+rng.Intn(8)) * sim.Millisecond
	plantGap := sim.Duration(1+rng.Intn(20)) * sim.Millisecond

	label := fmt.Sprintf("stress-%d-plant-%v", seed, plant)
	return &SimProgram{
		Label:  label,
		Jitter: 0.03,
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			shared := make([]*memmodel.Ref, objs)
			for i := range shared {
				shared[i] = h.NewRef(fmt.Sprintf("s%d", i))
			}
			var racy *memmodel.Ref
			if plant {
				racy = h.NewRef("racy")
				racy.Init(root, "plant/init")
			}
			var wg sim.WaitGroup
			for ti := 0; ti < threads; ti++ {
				ti := ti
				wg.Add(root, 1)
				root.Spawn(fmt.Sprintf("w%d", ti), func(t *sim.Thread) {
					defer wg.Done(t)
					for oi := 0; oi < objs; oi++ {
						owner := oi%threads == ti
						if owner {
							t.Work(spacing)
							shared[oi].Init(t, site("stress", ti, oi, "init"))
						}
						for op := 0; op < ops; op++ {
							t.Work(spacing)
							shared[oi].UseIfLive(t, site("stress", ti, oi, op))
						}
						if owner {
							t.Work(spacing)
							shared[oi].Dispose(t, site("stress", ti, oi, "disp"))
						}
					}
				})
			}
			if plant {
				user := root.Spawn("planted-user", func(t *sim.Thread) {
					t.Sleep(plantAt)
					racy.Use(t, "plant/use") // unguarded: the real bug
				})
				root.Sleep(plantAt + plantGap)
				racy.Dispose(root, "plant/disp")
				root.Join(user)
			}
			wg.Wait(root)
		},
	}
}

func site(parts ...any) trace.SiteID {
	s := ""
	for _, p := range parts {
		s += fmt.Sprintf("/%v", p)
	}
	return trace.SiteID(s)
}

func TestStressNoFalsePositives(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		prog := stressProgram(seed*37+1, false)
		s := &Session{Prog: prog, Tool: NewWaffle(Options{}), MaxRuns: 4, BaseSeed: seed + 100}
		if out := s.Expose(); out.Bug != nil {
			t.Fatalf("false positive on guarded program (seed %d): %v", seed, out.Bug)
		}
	}
}

func TestStressNoFalsePositivesUnderBasic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prog := stressProgram(seed*53+7, false)
		s := &Session{Prog: prog, Tool: NewOnlineTool(), MaxRuns: 4, BaseSeed: seed + 5}
		if out := s.Expose(); out.Bug != nil {
			t.Fatalf("false positive under online engine (seed %d): %v", seed, out.Bug)
		}
	}
}

// NewOnlineTool adapts the WaffleBasic-configured engine to Tool for the
// stress harness without importing the wafflebasic package (cycle).
func NewOnlineTool() Tool { return &onlineTool{engine: NewOnline(WaffleBasicConfig(Options{}))} }

type onlineTool struct{ engine *Online }

func (o *onlineTool) Name() string { return "online" }
func (o *onlineTool) HookForRun(run int, prev *RunReport) memmodel.Hook {
	o.engine.BeginRun()
	return o.engine
}
func (o *onlineTool) RunStats() DelayStats             { return o.engine.Stats() }
func (o *onlineTool) Candidates(s trace.SiteID) []Pair { return o.engine.Candidates(s) }

func TestStressPlantedBugsExposed(t *testing.T) {
	exposed := 0
	const total = 30
	for seed := int64(0); seed < total; seed++ {
		prog := stressProgram(seed*41+3, true)
		s := &Session{Prog: prog, Tool: NewWaffle(Options{}), MaxRuns: 8, BaseSeed: seed + 11}
		out := s.Expose()
		if out.Bug != nil {
			exposed++
			if out.Bug.NullRef.Site != "plant/use" {
				t.Fatalf("seed %d: fault at %s, want the planted site", seed, out.Bug.NullRef.Site)
			}
		}
	}
	// Gaps are random in (1, 20]ms — always inside δ=100ms, so nearly
	// every planted program must be exposed.
	if exposed < total*9/10 {
		t.Fatalf("exposed only %d/%d planted bugs", exposed, total)
	}
}
