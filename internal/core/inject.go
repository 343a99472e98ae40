package core

import (
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Injector is Waffle's detection-run hook (§5, component 3): the analyzed
// plan as a candidate source. It looks up each access's site in the plan,
// sizes the delay from the site's gap (§4.3), and hands it to the
// Actuator, which draws against the plan's Probs (decayed in place on the
// shared Plan, which the Session persists between runs) and skips on the
// plan's interference rows. Stores at StaleRead delay sites take the
// flush path instead.
type Injector struct {
	*Actuator
	opts Options
	plan *Plan

	// flushSites are the delay sites of the plan's StaleRead pairs: stores
	// whose *visibility* is delayed (memmodel.AddFlushDelay) instead of
	// the issuing thread. Empty outside TSO mode.
	flushSites map[trace.SiteID]bool
}

// NewInjector returns a detection hook for plan. The plan's Probs map is
// mutated by probability decay as the run proceeds.
func NewInjector(plan *Plan, opts Options) *Injector {
	opts = opts.WithDefaults()
	rows := plan.Interfere
	if opts.DisableInterferenceControl {
		rows = nil
	}
	in := &Injector{Actuator: NewActuator(plan.Probs, rows, opts.Metrics), opts: opts, plan: plan}
	for _, p := range plan.Pairs {
		if p.Kind == StaleRead {
			if in.flushSites == nil {
				in.flushSites = make(map[trace.SiteID]bool)
			}
			in.flushSites[p.Delay] = true
		}
	}
	return in
}

// OnAccess implements memmodel.Hook — the simulator entry point. Stores at
// a StaleRead candidate site take the flush-delay path: the delay lands on
// the store's commit, not on the thread, because every StaleRead pair is
// fork-ordered — sleeping the writer would shift the whole forked subtree
// (reader included) and never widen the stale window. The thread's next
// buffered store (the very access being hooked) commits opts.Alpha·gap
// later than its drawn latency.
func (in *Injector) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if len(in.flushSites) == 0 || (kind != trace.KindInit && kind != trace.KindDispose) || !in.flushSites[site] {
		in.Access(t, site, obj, kind, dur)
		return
	}
	if in.opts.InstrCost > 0 {
		t.Sleep(in.opts.InstrCost)
	}
	if gapLen, ok := in.plan.DelayLen[site]; ok {
		d := in.opts.delayFor(gapLen)
		if in.flush(t, site, d, in.opts.Decay) {
			memmodel.AddFlushDelay(t, d)
		}
	}
}

// Access is the clock-agnostic hook body: charge instrumentation overhead,
// then, at a candidate site, let the actuator decide whether to pause the
// thread before the access executes. The plan lookup takes no lock: see
// Plan.
func (in *Injector) Access(e Exec, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if in.opts.InstrCost > 0 {
		e.Sleep(in.opts.InstrCost)
	}
	if gapLen, ok := in.plan.DelayLen[site]; ok {
		in.Inject(e, site, in.opts.delayFor(gapLen), in.opts.Decay)
	}
}

// PrepHook is the preparation-run hook: it records the trace and charges
// instrumentation plus logging overhead, but never injects (§4.2).
type PrepHook struct {
	rec  *trace.Recorder
	cost sim.Duration
}

// NewPrepHook wraps rec with the configured preparation-run overhead.
func NewPrepHook(rec *trace.Recorder, opts Options) *PrepHook {
	opts = opts.WithDefaults()
	return &PrepHook{rec: rec, cost: max(opts.InstrCost, 0) + max(opts.TraceCost, 0)}
}

// OnAccess implements memmodel.Hook.
func (p *PrepHook) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if p.cost > 0 {
		t.Sleep(p.cost)
	}
	p.rec.Record(t, site, obj, kind, dur)
}
