package control

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
)

func detCtx(run, maxRuns, liveSites int, prev *core.RunReport) core.TuneContext {
	return core.TuneContext{
		Program: "p", Tool: "waffle", Run: run, MaxRuns: maxRuns,
		Prev: prev, PrevDetection: prev != nil, LiveSites: liveSites,
		Opts: core.Options{}.WithDefaults(), Retunable: true,
	}
}

func dryRun(run int) *core.RunReport {
	return &core.RunReport{Run: run, Outcome: core.RunClean}
}

func wetRun(run int) *core.RunReport {
	return &core.RunReport{Run: run, Outcome: core.RunClean,
		Stats: core.DelayStats{Count: 3, Total: 5000}}
}

func TestDisabledControllerHandsOutNilTargets(t *testing.T) {
	c := New(Config{Disabled: true})
	if tgt := c.Target("x"); tgt != nil {
		t.Fatal("disabled controller returned a non-nil target")
	}
	var nilC *Controller
	if tgt := nilC.Target("x"); tgt != nil {
		t.Fatal("nil controller returned a non-nil target")
	}
	// The nil Target is a usable no-op Tuner.
	var tgt *Target
	if d := tgt.TuneRun(detCtx(2, 25, 0, dryRun(1))); d.Stop || d.Opts != nil || d.MaxRuns != 0 {
		t.Fatal("nil target made a decision")
	}
	tgt.ObserveOutcome(&core.Outcome{})
	if tgt.Registry() != nil {
		t.Fatal("nil target returned a registry")
	}
	if nilC.PoolTune(4) != nil {
		t.Fatal("nil controller returned a pool tuner")
	}
}

func TestScaleToZeroOnDeadSitesAfterDrySpell(t *testing.T) {
	var log bytes.Buffer
	c := New(Config{DrySpellRuns: 2, Log: &log})
	tgt := c.Target("p/waffle")

	// Sites live, injecting: no stop.
	if d := tgt.TuneRun(detCtx(3, 25, 4, wetRun(2))); d.Stop {
		t.Fatal("stopped a live target")
	}
	// Sites dead but only one dry run so far: not yet.
	if d := tgt.TuneRun(detCtx(4, 25, 0, dryRun(3))); d.Stop {
		t.Fatal("stopped before the dry spell completed")
	}
	// Second dry run with zero live sites: stop, and account the savings.
	d := tgt.TuneRun(detCtx(5, 25, 0, dryRun(4)))
	if !d.Stop {
		t.Fatal("no stop after dry spell with zero live sites")
	}
	ev := c.Events()
	if len(ev) != 1 || ev[0].Action != "stop" || ev[0].Saved != 21 {
		t.Fatalf("events = %+v, want one stop saving 21 runs", ev)
	}
	snap := c.CampaignSnapshot()
	if snap.Counters["control.sessions_stopped"] != 1 || snap.Counters["control.runs_saved"] != 21 {
		t.Fatalf("campaign counters = %v", snap.Counters)
	}
	// The JSONL log carries the event.
	var got RetuneEvent
	if err := json.Unmarshal([]byte(strings.TrimSpace(log.String())), &got); err != nil || got.Action != "stop" {
		t.Fatalf("log line %q: %v", log.String(), err)
	}
}

// A tool that cannot report live sites (LiveSites == -1) is stopped only
// on the decay-floor counter plus a doubled dry spell.
func TestScaleToZeroUnknownSitesNeedsFloorAndLongSpell(t *testing.T) {
	c := New(Config{DrySpellRuns: 2})
	tgt := c.Target("p/tsvd")

	// Dry spell without any floor hit: never stop (the tool may simply
	// have no candidates yet).
	for run := 2; run <= 8; run++ {
		if d := tgt.TuneRun(core.TuneContext{Tool: "tsvd", Run: run, MaxRuns: 25,
			Prev: dryRun(run - 1), PrevDetection: true, LiveSites: -1}); d.Stop {
			t.Fatalf("stopped at run %d with no floor hits", run)
		}
	}
	// Floor hit recorded in the per-target registry: the doubled spell
	// (4 here) applies from now on.
	tgt2 := c.Target("p2/tsvd")
	tgt2.Registry().Counter("inject.decay_floor_hits").Inc()
	stoppedAt := 0
	for run := 2; run <= 10; run++ {
		if d := tgt2.TuneRun(core.TuneContext{Tool: "tsvd", Run: run, MaxRuns: 25,
			Prev: dryRun(run - 1), PrevDetection: true, LiveSites: -1}); d.Stop {
			stoppedAt = run
			break
		}
	}
	// Dry runs accumulate starting at run 2's boundary (prev = run 1);
	// the 4th dry run is seen at the run-5 boundary.
	if stoppedAt != 5 {
		t.Fatalf("stopped at run %d, want 5 (2×DrySpellRuns dry runs)", stoppedAt)
	}
}

func TestBudgetCapFromCampaignQuantile(t *testing.T) {
	c := New(Config{MinExposures: 3, BudgetQuantile: 99, BudgetMargin: 2, MinBudget: 6})
	// Three same-tool exposures at runs 2, 2, 3 → p99 = 3, cap = 6.
	for i, r := range []int{2, 2, 3} {
		tgt := c.Target("done/" + string(rune('a'+i)))
		out := &core.Outcome{Tool: "waffle",
			Runs: make([]core.RunReport, r),
			Bug:  &core.BugReport{Run: r}}
		tgt.ObserveOutcome(out)
	}
	tgt := c.Target("searching")
	d := tgt.TuneRun(detCtx(4, 25, 4, wetRun(3)))
	if d.MaxRuns != 6 {
		t.Fatalf("budget cap = %d, want 6 (max(ceil(3*2), MinBudget=6))", d.MaxRuns)
	}
	// The cap is issued once per target.
	if d2 := tgt.TuneRun(detCtx(5, 6, 4, wetRun(4))); d2.MaxRuns != 0 {
		t.Fatalf("second budget cap issued: %d", d2.MaxRuns)
	}
	// A different tool's exposures must not leak into this tool's cap.
	other := c.Target("searching-other-tool")
	od := other.TuneRun(core.TuneContext{Tool: "tsvd", Run: 4, MaxRuns: 25,
		Prev: wetRun(3), PrevDetection: true, LiveSites: 2})
	if od.MaxRuns != 0 {
		t.Fatalf("tsvd target capped from waffle exposures: %d", od.MaxRuns)
	}
}

func TestBudgetCapNeedsMinExposures(t *testing.T) {
	c := New(Config{MinExposures: 5})
	for i := 0; i < 4; i++ {
		c.Target("done/" + string(rune('a'+i))).ObserveOutcome(&core.Outcome{
			Tool: "waffle", Runs: make([]core.RunReport, 2), Bug: &core.BugReport{Run: 2}})
	}
	if d := c.Target("searching").TuneRun(detCtx(10, 25, 4, wetRun(9))); d.MaxRuns != 0 {
		t.Fatalf("capped with only 4 of 5 required exposures: %d", d.MaxRuns)
	}
}

func TestParameterEscalationAfterUnproductiveRuns(t *testing.T) {
	c := New(Config{UnproductiveRuns: 3, AlphaStep: 1.5, MaxAlpha: 2.0, DecayStep: 2, MaxDecay: 0.5})
	tgt := c.Target("p/waffle")
	// Unproductive injecting runs 1, 2, 3 are folded in at the boundaries
	// before runs 2, 3, 4 — the run-4 boundary is where the third lands
	// and the escalation fires.
	var d core.TuneDecision
	for run := 2; run <= 4; run++ {
		d = tgt.TuneRun(detCtx(run, 25, 4, wetRun(run-1)))
		if run < 4 && d.Opts != nil {
			t.Fatalf("escalated at run %d, before %d unproductive runs", run, 3)
		}
	}
	if d.Opts == nil {
		t.Fatal("no escalation after 3 unproductive injecting runs")
	}
	base := core.Options{}.WithDefaults()
	if got, want := d.Opts.Alpha, base.Alpha*1.5; got != want {
		t.Errorf("alpha = %v, want %v", got, want)
	}
	if got, want := d.Opts.Decay, base.Decay*2; got != want {
		t.Errorf("decay = %v, want %v", got, want)
	}
	// Counter reset: the very next boundary must not escalate again.
	if d2 := tgt.TuneRun(detCtx(5, 25, 4, wetRun(4))); d2.Opts != nil {
		t.Fatal("escalated again immediately after a retune")
	}
	// Clamps: repeated escalation saturates at MaxAlpha / MaxDecay, after
	// which no further retune events are issued.
	opts := *d.Opts
	for i := 0; i < 10; i++ {
		for run := 0; run < 3; run++ {
			ctx := detCtx(6+3*i+run, 25, 4, wetRun(5+3*i+run))
			ctx.Opts = opts
			if nd := tgt.TuneRun(ctx); nd.Opts != nil {
				opts = *nd.Opts
			}
		}
	}
	if opts.Alpha > 2.0 || opts.Decay > 0.5 {
		t.Fatalf("escalation exceeded clamps: alpha=%v decay=%v", opts.Alpha, opts.Decay)
	}
}

func TestPoolTuneShrinksWithStoppedTargets(t *testing.T) {
	c := New(Config{DrySpellRuns: 1})
	a, b := c.Target("a"), c.Target("b")
	tune := c.PoolTune(8)
	if w := tune(1, 0); w != 8 {
		t.Fatalf("initial pool = %d, want 8", w)
	}
	// Stop one of two targets: the pool halves.
	if d := a.TuneRun(detCtx(3, 25, 0, dryRun(2))); !d.Stop {
		t.Fatal("target a did not stop")
	}
	if w := tune(2, 4); w != 4 {
		t.Fatalf("pool after 1/2 stopped = %d, want 4", w)
	}
	if d := b.TuneRun(detCtx(3, 25, 0, dryRun(2))); !d.Stop {
		t.Fatal("target b did not stop")
	}
	if w := tune(3, 8); w != 1 {
		t.Fatalf("pool after all stopped = %d, want 1 (floor)", w)
	}
}

// End-to-end on a real session: a program whose plan has no candidate
// pairs never injects, so the controller stops the session after the dry
// spell instead of burning the whole budget.
func TestControllerStopsQuietSessionEndToEnd(t *testing.T) {
	prog := &core.SimProgram{
		Label: "quiet",
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			r := h.NewRef("r")
			r.Init(root, "init.go:1")
			// Same-thread, widely spaced: no near miss, no candidates.
			root.Sleep(500 * sim.Millisecond)
			r.Use(root, "use.go:1")
		},
	}
	c := New(Config{DrySpellRuns: 2})
	tgt := c.Target("quiet/waffle")
	s := &core.Session{Prog: prog, Tool: core.NewWaffle(core.Options{Metrics: tgt.Registry()}),
		MaxRuns: 30, BaseSeed: 7, Tuner: tgt}
	out := s.Expose()
	tgt.ObserveOutcome(out)
	if out.Bug != nil {
		t.Fatal("quiet program exposed a bug")
	}
	if len(out.Runs) >= 30 {
		t.Fatalf("controller did not stop the quiet session (%d runs)", len(out.Runs))
	}
	st := c.Targets()
	if len(st) != 1 || !st[0].Stopped {
		t.Fatalf("target state = %+v, want stopped", st)
	}
	if st[0].Runs != len(out.Runs) {
		t.Fatalf("target runs = %d, outcome runs = %d", st[0].Runs, len(out.Runs))
	}
}
