package core

import (
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Waffle is the paper's tool as a Session-drivable Tool: run 1 is the
// delay-free preparation run whose trace is analyzed into a Plan; every
// subsequent run injects according to that plan, with probabilities
// decaying in place between runs (Figure 3). Setting
// Options.DisablePrepRun switches the whole tool to the online engine
// (same-run identification), which is Table 7's "no preparation run"
// ablation.
type Waffle struct {
	opts Options

	rec    *trace.Recorder
	prepTr *trace.Trace
	plan   *Plan
	inj    *Injector
	online *Online
	label  string
}

// NewWaffle returns a fresh Waffle tool.
func NewWaffle(opts Options) *Waffle {
	w := &Waffle{opts: opts.WithDefaults()}
	if w.opts.DisablePrepRun {
		w.online = NewOnline(NoPrepConfig(w.opts))
	}
	return w
}

// NewWaffleWithPlan returns a Waffle tool bootstrapped from a previously
// analyzed plan, skipping the preparation run entirely — the paper's
// on-disk workflow, where S, I, the delay lengths, and the decayed
// probabilities persist between detection runs and across tool invocations
// (§4.4, §5). Every run of the returned tool is a detection run; the
// plan's probabilities continue to decay in place.
func NewWaffleWithPlan(plan *Plan, opts Options) *Waffle {
	return &Waffle{opts: opts.WithDefaults(), plan: plan}
}

// Name implements Tool.
func (w *Waffle) Name() string {
	if w.opts.DisablePrepRun {
		return "waffle(no-prep)"
	}
	return "waffle"
}

// Plan exposes the analyzed plan (nil before the preparation run finishes
// or when running in no-prep mode).
func (w *Waffle) Plan() *Plan { return w.plan }

// PrepTrace exposes the preparation-run trace (nil before analysis or in
// no-prep mode).
func (w *Waffle) PrepTrace() *trace.Trace { return w.prepTr }

// SetLabel names the plan produced by analysis.
func (w *Waffle) SetLabel(label string) { w.label = label }

// HookForRun implements Tool.
func (w *Waffle) HookForRun(run int, prev *RunReport) memmodel.Hook {
	if w.opts.DisablePrepRun {
		w.online.BeginRun()
		return w.online
	}
	if run == 1 && w.plan == nil {
		w.rec = trace.NewRecorder(w.label, 0)
		return NewPrepHook(w.rec, w.opts)
	}
	if w.plan == nil {
		w.FinishPreparation(prev)
	}
	w.inj = NewInjector(w.plan, w.opts)
	return w.inj
}

// FinishPreparation turns the recorded preparation trace into the plan.
// prev is the preparation run's report (its End stamps the trace). Called
// lazily by HookForRun before the first detection run; exposed so the
// parallel orchestrator can finalize the plan without building a hook.
func (w *Waffle) FinishPreparation(prev *RunReport) {
	var end sim.Time
	if prev != nil {
		end = prev.End
	}
	w.prepTr = w.rec.Finish(end)
	w.plan = Analyze(w.prepTr, w.opts)
}

// PrepRunCount implements PlanDriven: -1 in online mode (detection is not
// plan-driven there), 0 when bootstrapped from a plan, 1 when run 1 must
// record the preparation trace.
func (w *Waffle) PrepRunCount() int {
	switch {
	case w.opts.DisablePrepRun:
		return -1
	case w.plan != nil:
		return 0
	default:
		return 1
	}
}

// DetectionPlan implements PlanDriven.
func (w *Waffle) DetectionPlan(prev *RunReport) *Plan {
	if w.plan == nil {
		w.FinishPreparation(prev)
	}
	return w.plan
}

// NewDetectionInjector implements PlanDriven.
func (w *Waffle) NewDetectionInjector(plan *Plan) *Injector {
	return NewInjector(plan, w.opts)
}

// CurrentOptions implements Retunable.
func (w *Waffle) CurrentOptions() Options { return w.opts }

// SetOptions implements Retunable: replaces the options used by every
// injector constructed from now on. NewInjector copies Options at
// construction, so in-flight runs (including leaked timed-out live runs)
// keep the options they started with; callers apply retunes only at run
// boundaries (Session.Tuner does). Identity-defining flags are pinned to
// their constructed values — a retune must not change what tool this is.
func (w *Waffle) SetOptions(opts Options) {
	opts.DisablePrepRun = w.opts.DisablePrepRun
	w.opts = opts.WithDefaults()
	if w.online != nil {
		w.online.SetOptions(w.opts)
	}
}

// LiveSites implements SiteProber: the number of injection sites whose
// probability is still positive — zero means no future run of this tool
// can inject, hence (§5) no future run can expose. -1 before the plan
// exists.
func (w *Waffle) LiveSites() int {
	if w.opts.DisablePrepRun {
		return w.online.LiveSites()
	}
	return w.plan.LiveSites()
}

// RunStats implements Tool.
func (w *Waffle) RunStats() DelayStats {
	switch {
	case w.opts.DisablePrepRun:
		return w.online.Stats()
	case w.inj != nil:
		return w.inj.Stats()
	default:
		return DelayStats{} // preparation run injects nothing
	}
}

// Candidates implements Tool.
func (w *Waffle) Candidates(site trace.SiteID) []Pair {
	if w.opts.DisablePrepRun {
		var out []Pair
		for _, p := range w.online.Pairs() {
			if p.Delay == site || p.Target == site {
				out = append(out, p)
			}
		}
		return out
	}
	if w.plan == nil {
		return nil
	}
	return w.plan.PairsAt(site)
}
