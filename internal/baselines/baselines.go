// Package baselines implements simplified versions of the two remaining
// design points of Table 1 — DataCollider's random location sampling and
// the RaceFuzzer/CTrigger single-candidate validation strategy — so the
// design-decision matrix can be compared empirically, not just cited.
// Both implement core.Tool and plug into the same sessions and benchmarks
// as Waffle and WaffleBasic.
package baselines

import (
	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// DataCollider adapts the OSDI '10 kernel race detector's strategy to
// MemOrder sites: no synchronization analysis and no inference — each run
// independently samples a small random fraction of the instrumentation
// sites and injects short fixed delays there (Table 1: sampled candidate
// locations, fixed-length delay, probabilistic injection). Coverage per
// run is low by design; many runs substitute for analysis.
type DataCollider struct {
	// SampleRate is the per-site probability of being sampled this run.
	SampleRate float64
	// Delay is the fixed pause length (DataCollider used short pauses).
	Delay sim.Duration
	// InstrCost is the per-access instrumentation overhead.
	InstrCost sim.Duration

	sampled map[trace.SiteID]bool // this run's sampling decisions
	act     *core.Actuator        // this run's delays
}

// NewDataCollider returns the sampler with defaults: 5% of sites per run,
// 10ms pauses.
func NewDataCollider() *DataCollider {
	return &DataCollider{SampleRate: 0.05, Delay: 10 * sim.Millisecond, InstrCost: core.DefaultInstrCost}
}

// Name implements core.Tool.
func (d *DataCollider) Name() string { return "datacollider" }

// HookForRun implements core.Tool: every run resamples independently.
func (d *DataCollider) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	d.sampled = make(map[trace.SiteID]bool)
	d.act = core.NewActuator(nil, nil, nil)
	return d
}

// RunStats implements core.Tool.
func (d *DataCollider) RunStats() core.DelayStats { return d.act.Stats() }

// Candidates implements core.Tool: sampling has no candidate model.
func (d *DataCollider) Candidates(site trace.SiteID) []core.Pair { return nil }

// OnAccess implements memmodel.Hook.
func (d *DataCollider) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if d.InstrCost > 0 {
		t.Sleep(d.InstrCost)
	}
	if !kind.IsMemOrder() {
		return
	}
	chosen, decided := d.sampled[site]
	if !decided {
		chosen = t.World().Rand() < d.SampleRate
		d.sampled[site] = chosen
	}
	if chosen {
		d.act.Delay(t, site, d.Delay)
	}
}

// SingleDelay models the RaceFuzzer/CTrigger family: a full analysis pass
// first (here: Waffle's trace analyzer standing in for their
// synchronization analysis), then one candidate pair is validated per
// detection run with a deterministic fixed-length delay at its delay site
// (Table 1: synchronization analysis, identification outside injection
// runs, fixed delay, non-probabilistic, one sampled candidate at a time).
// With tens or hundreds of candidates, runs-to-expose scales linearly —
// the cost §4.4 refuses to pay.
type SingleDelay struct {
	// Delay is the fixed validation delay.
	Delay sim.Duration
	// InstrCost is the per-access instrumentation overhead.
	InstrCost sim.Duration
	// Opts feeds the analyzer (window, pruning).
	Opts core.Options

	rec    *trace.Recorder
	plan   *core.Plan
	target trace.SiteID
	fired  bool
	act    *core.Actuator // this run's delay
}

// NewSingleDelay returns the validator with the paper's fixed delay.
func NewSingleDelay(opts core.Options) *SingleDelay {
	return &SingleDelay{Delay: core.DefaultFixedDelay, InstrCost: core.DefaultInstrCost, Opts: opts}
}

// Name implements core.Tool.
func (s *SingleDelay) Name() string { return "single-delay" }

// Plan exposes the analysis result (nil before run 2).
func (s *SingleDelay) Plan() *core.Plan { return s.plan }

// HookForRun implements core.Tool: run 1 records; run k validates
// candidate (k−2) mod |S|.
func (s *SingleDelay) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	s.act = core.NewActuator(nil, nil, nil)
	if run == 1 {
		s.rec = trace.NewRecorder("single-delay", 0)
		return core.NewPrepHook(s.rec, s.Opts)
	}
	if s.plan == nil {
		var end sim.Time
		if prev != nil {
			end = prev.End
		}
		s.plan = core.Analyze(s.rec.Finish(end), s.Opts)
	}
	s.target = ""
	s.fired = false
	if n := len(s.plan.Pairs); n > 0 {
		s.target = s.plan.Pairs[(run-2)%n].Delay
	}
	return s
}

// RunStats implements core.Tool.
func (s *SingleDelay) RunStats() core.DelayStats { return s.act.Stats() }

// Candidates implements core.Tool.
func (s *SingleDelay) Candidates(site trace.SiteID) []core.Pair {
	if s.plan == nil {
		return nil
	}
	return s.plan.PairsAt(site)
}

// OnAccess implements memmodel.Hook: exactly one delay per run, at the
// first dynamic instance of the targeted site.
func (s *SingleDelay) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if s.InstrCost > 0 {
		t.Sleep(s.InstrCost)
	}
	if s.fired || site != s.target {
		return
	}
	s.fired = true
	s.act.Delay(t, site, s.Delay)
}
