// Package control is the adaptive campaign controller: it closes the
// loop from the obs layer back into the search. A campaign over many
// targets (program × bug × tool sessions) spends most of its budget on
// sessions that will never expose anything — disarmed programs whose
// probabilities have decayed to the floor, tools whose candidate sets
// went quiet, stragglers burning runs long past the point where every
// comparable exposure has already happened. The controller watches the
// signals the observability layer already collects and retunes, per
// target, at run boundaries only:
//
//   - Scale to zero: a target whose injection sites have all decayed to
//     probability zero (core.SiteProber), or that has hit the decay
//     floor (inject.decay_floor_hits) and then gone an extended dry
//     spell without a single injected or even skipped delay, stops
//     consuming runs. Under §5's zero-false-positive contract a run
//     without delays can never report a bug, so stopping such a session
//     forfeits nothing.
//   - Budget reallocation: once enough same-tool exposures have been
//     observed campaign-wide, an unexposed session's budget is capped
//     at a margin above the observed p99 runs-to-exposure — sessions
//     far beyond where every comparable exposure landed are almost
//     certainly misses.
//   - Parameter escalation: a session injecting run after run without
//     exposing gets its Alpha (delay length multiplier, §4.3) raised to
//     widen the displacement window and its Decay (§4.4) raised to
//     quiesce dead sites faster — multiplicative steps, clamped, and
//     guarded by the campaign-wide delay-overhead histogram so delay
//     lengths are not escalated when runs are already delay-dominated.
//   - Pool shrinking: sched worker caps shrink proportionally to the
//     fraction of campaign targets still live (Controller.PoolTune).
//
// All retuning happens through core.Session's run-boundary Tuner seam
// (see core/tune.go): options are copied at injector construction, so an
// in-flight run is never mutated; a nil or Disabled controller hands the
// session a nil Tuner and the search is byte-identical to an untuned one.
package control

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"waffle/internal/core"
	"waffle/internal/obs"
)

// Config tunes the controller itself. Zero values take the defaults
// below; they are deliberately conservative — the controller must never
// cost an exposure the fixed campaign would have found.
type Config struct {
	// DrySpellRuns is how many consecutive detection runs with zero
	// injected and zero skipped delays a quiet target must accumulate
	// before it is stopped. Default 2.
	DrySpellRuns int
	// UnproductiveRuns is how many consecutive clean delay-injecting
	// detection runs trigger a parameter escalation. Default 4.
	UnproductiveRuns int
	// AlphaStep multiplies Options.Alpha at each escalation, clamped to
	// MaxAlpha. Defaults 1.25 and 2.5.
	AlphaStep float64
	MaxAlpha  float64
	// DecayStep multiplies Options.Decay at each escalation, clamped to
	// MaxDecay. Defaults 2.0 and 0.5.
	DecayStep float64
	MaxDecay  float64
	// BudgetQuantile is the runs-to-exposure percentile the budget cap
	// derives from; BudgetMargin multiplies it. Defaults 99 and 2.0.
	BudgetQuantile float64
	BudgetMargin   float64
	// MinExposures is how many same-tool exposures the campaign must have
	// observed before budget caps apply. Default 5.
	MinExposures int
	// MinBudget floors any budget cap. Default 8.
	MinBudget int
	// Log, when non-nil, receives one JSON line per retune event.
	Log io.Writer
	// Disabled makes Target return nil, handing sessions a nil Tuner:
	// the -adaptive=false escape hatch that keeps searches byte-identical
	// to controller-free ones.
	Disabled bool
}

func (c Config) withDefaults() Config {
	if c.DrySpellRuns <= 0 {
		c.DrySpellRuns = 2
	}
	if c.UnproductiveRuns <= 0 {
		c.UnproductiveRuns = 4
	}
	if c.AlphaStep <= 1 {
		c.AlphaStep = 1.25
	}
	if c.MaxAlpha <= 0 {
		c.MaxAlpha = 2.5
	}
	if c.DecayStep <= 1 {
		c.DecayStep = 2.0
	}
	if c.MaxDecay <= 0 {
		c.MaxDecay = 0.5
	}
	if c.BudgetQuantile <= 0 || c.BudgetQuantile > 100 {
		c.BudgetQuantile = 99
	}
	if c.BudgetMargin <= 1 {
		c.BudgetMargin = 2.0
	}
	if c.MinExposures <= 0 {
		c.MinExposures = 5
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 8
	}
	return c
}

// RetuneEvent records one controller decision, for the -adaptive-log
// JSONL stream and the BENCH_adaptive.json report.
type RetuneEvent struct {
	Target  string  `json:"target"`
	Tool    string  `json:"tool"`
	Run     int     `json:"run"`
	Action  string  `json:"action"` // "stop", "budget", "retune"
	Detail  string  `json:"detail"`
	Alpha   float64 `json:"alpha,omitempty"`
	Decay   float64 `json:"decay,omitempty"`
	MaxRuns int     `json:"max_runs,omitempty"`
	Saved   int     `json:"saved_runs,omitempty"`
}

// TargetState is a target's final per-campaign summary.
type TargetState struct {
	Name         string  `json:"name"`
	Tool         string  `json:"tool"`
	Runs         int     `json:"runs"`
	Exposed      bool    `json:"exposed"`
	ExposedRun   int     `json:"exposed_run,omitempty"`
	Stopped      bool    `json:"stopped"`
	StoppedAtRun int     `json:"stopped_at_run,omitempty"`
	SavedRuns    int     `json:"saved_runs,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	Decay        float64 `json:"decay,omitempty"`
	MaxRuns      int     `json:"max_runs"`
}

// Controller coordinates a campaign's targets. Create with New; hand
// each session a Target (as its core.Tuner) and report its Outcome back
// via Target.ObserveOutcome. Safe for concurrent use — campaign-level
// state is a Registry (internally synchronized) plus small mutexed maps.
type Controller struct {
	cfg  Config
	camp *obs.Registry // campaign-wide signals (per-tool exposure histograms, overhead)

	mu      sync.Mutex // guards targets
	targets map[string]*Target

	evmu   sync.Mutex // guards events + Log; never held with a Target's mu acquired after it
	events []RetuneEvent
}

// New returns a controller with cfg's zero values defaulted.
func New(cfg Config) *Controller {
	return &Controller{
		cfg:     cfg.withDefaults(),
		camp:    obs.New(),
		targets: make(map[string]*Target),
	}
}

// Target returns (creating on first use) the named target, backed by a
// fresh per-target registry: wire Target.Registry into the engine's
// Options.Metrics so the controller can read the target's injection
// counters (inject.decay_floor_hits in particular). Nil — a no-op Tuner —
// on a nil or Disabled controller; callers must then leave Session.Tuner
// unset (a typed nil in the interface field would still short-circuit,
// but the nil check in Session is cheaper).
func (c *Controller) Target(name string) *Target {
	if c == nil || c.cfg.Disabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.targets[name]; ok {
		return t
	}
	t := &Target{c: c, name: name, reg: obs.New()}
	c.targets[name] = t
	return t
}

// Events returns a copy of all retune events so far, in decision order.
func (c *Controller) Events() []RetuneEvent {
	if c == nil {
		return nil
	}
	c.evmu.Lock()
	defer c.evmu.Unlock()
	return append([]RetuneEvent(nil), c.events...)
}

// Targets returns every target's state, sorted by name.
func (c *Controller) Targets() []TargetState {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ts := make([]*Target, 0, len(c.targets))
	for _, t := range c.targets {
		ts = append(ts, t)
	}
	c.mu.Unlock()
	out := make([]TargetState, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.state())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CampaignSnapshot snapshots the controller's campaign-wide registry:
// per-tool runs-to-exposure histograms, the delay-overhead histogram,
// and the control.* decision counters.
func (c *Controller) CampaignSnapshot() *obs.Snapshot {
	if c == nil {
		return nil
	}
	return c.camp.Snapshot()
}

// PoolTune returns a sched.Pool.Tune hook that shrinks the worker cap
// proportionally to the fraction of campaign targets still live, never
// below 1 and never above initial. Nil on a nil or Disabled controller
// (sched treats a nil Tune as a static pool).
func (c *Controller) PoolTune(initial int) func(wave, committed int) int {
	if c == nil || c.cfg.Disabled {
		return nil
	}
	if initial <= 0 {
		initial = 1
	}
	return func(wave, committed int) int {
		total, stopped := c.counts()
		if total == 0 {
			return initial
		}
		w := int(math.Ceil(float64(initial) * float64(total-stopped) / float64(total)))
		if w < 1 {
			w = 1
		}
		if w > initial {
			w = initial
		}
		return w
	}
}

func (c *Controller) counts() (total, stopped int) {
	c.mu.Lock()
	ts := make([]*Target, 0, len(c.targets))
	for _, t := range c.targets {
		ts = append(ts, t)
	}
	c.mu.Unlock()
	for _, t := range ts {
		t.mu.Lock()
		if t.stopped {
			stopped++
		}
		t.mu.Unlock()
	}
	return len(ts), stopped
}

func (c *Controller) emit(ev RetuneEvent) {
	c.evmu.Lock()
	defer c.evmu.Unlock()
	c.events = append(c.events, ev)
	if c.cfg.Log != nil {
		if b, err := json.Marshal(ev); err == nil {
			fmt.Fprintf(c.cfg.Log, "%s\n", b)
		}
	}
}

// Target is one session's controller endpoint. It implements core.Tuner;
// all methods are safe on a nil receiver (the disabled mode).
type Target struct {
	c    *Controller
	name string
	reg  *obs.Registry

	mu           sync.Mutex
	tool         string
	runs         int
	dryRuns      int
	unproductive int
	budgetCapped bool
	stopped      bool
	stoppedAt    int
	saved        int
	exposed      bool
	exposedRun   int
	alpha, decay float64
	maxRuns      int
}

// Registry returns the target's per-target registry (nil on nil).
func (t *Target) Registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// TuneRun implements core.Tuner: one decision per run boundary.
func (t *Target) TuneRun(ctx core.TuneContext) core.TuneDecision {
	if t == nil {
		return core.TuneDecision{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cfg := t.c.cfg
	t.tool = ctx.Tool
	t.runs = ctx.Run - 1
	t.maxRuns = ctx.MaxRuns
	if ctx.Retunable {
		t.alpha, t.decay = ctx.Opts.Alpha, ctx.Opts.Decay
	}
	var d core.TuneDecision

	// Fold the previous detection run into the dry-spell and
	// unproductivity accounting. Preparation runs are skipped: they
	// inject nothing by design, which says nothing about liveness.
	if ctx.PrevDetection && ctx.Prev != nil {
		st := ctx.Prev.Stats
		t.c.camp.Histogram("control.delay_ticks", obs.DelayBuckets).Observe(int64(st.Total))
		if st.Count == 0 && st.Skipped == 0 {
			t.dryRuns++
		} else {
			t.dryRuns = 0
			if ctx.Prev.Outcome == core.RunClean {
				t.unproductive++
			}
		}
	}

	// Scale to zero. LiveSites == 0 means every known injection site has
	// decayed to probability zero; combined with a dry spell (no new
	// sites coming online either) the session cannot inject again, and a
	// delay-free run can never report a bug (§5) — its remaining budget
	// is pure waste. Tools that cannot report live sites fall back to the
	// decay-floor counter plus a doubled dry-spell window.
	quiet := ctx.LiveSites == 0
	if ctx.LiveSites < 0 && t.reg.Counter("inject.decay_floor_hits").Value() > 0 {
		quiet = t.dryRuns >= 2*cfg.DrySpellRuns
	}
	if quiet && t.dryRuns >= cfg.DrySpellRuns && !t.stopped {
		t.stopped = true
		t.stoppedAt = ctx.Run
		t.saved = ctx.MaxRuns - ctx.Run + 1
		t.c.camp.Counter("control.sessions_stopped").Inc()
		t.c.camp.Counter("control.runs_saved").Add(int64(t.saved))
		t.c.emit(RetuneEvent{
			Target: t.name, Tool: ctx.Tool, Run: ctx.Run, Action: "stop",
			Detail: fmt.Sprintf("live_sites=%d dry_runs=%d", ctx.LiveSites, t.dryRuns),
			Saved:  t.saved,
		})
		return core.TuneDecision{Stop: true}
	}

	// Budget reallocation: once the campaign has seen enough same-tool
	// exposures, cap this still-searching session's budget at a margin
	// above the observed tail. A saturated quantile (exposures in the
	// histogram's overflow bucket) disables the cap — the saturated
	// value is only a lower bound, and the tail is not actually known.
	if !t.budgetCapped {
		hname := "control.runs_to_exposure." + ctx.Tool
		if h := t.c.camp.Histogram(hname, obs.RunBuckets); h.Count() >= int64(cfg.MinExposures) {
			if q, sat, ok := t.c.camp.Snapshot().HistogramQuantileInfo(hname, cfg.BudgetQuantile); ok && !sat {
				budget := int(math.Ceil(q * cfg.BudgetMargin))
				if budget < cfg.MinBudget {
					budget = cfg.MinBudget
				}
				if budget < ctx.MaxRuns && budget >= ctx.Run {
					d.MaxRuns = budget
					t.budgetCapped = true
					t.maxRuns = budget
					t.c.camp.Counter("control.budget_caps").Inc()
					t.c.emit(RetuneEvent{
						Target: t.name, Tool: ctx.Tool, Run: ctx.Run, Action: "budget",
						Detail:  fmt.Sprintf("p%g=%g margin=%g", cfg.BudgetQuantile, q, cfg.BudgetMargin),
						MaxRuns: budget,
					})
				}
			}
		}
	}

	// Parameter escalation: runs keep injecting but nothing manifests.
	// Longer delays (higher Alpha) widen the displacement each injection
	// achieves (§4.3); faster decay (higher Decay) quiesces the sites
	// that were never going to expose (§4.4). When the campaign-wide
	// per-run delay overhead has already saturated the histogram's top
	// bucket, Alpha holds — making delay-dominated runs longer buys
	// displacement the schedule already has.
	if ctx.Retunable && t.unproductive >= cfg.UnproductiveRuns {
		t.unproductive = 0
		opts := ctx.Opts
		newAlpha := math.Min(opts.Alpha*cfg.AlphaStep, cfg.MaxAlpha)
		newDecay := math.Min(opts.Decay*cfg.DecayStep, cfg.MaxDecay)
		if _, sat, ok := t.c.camp.Snapshot().HistogramQuantileInfo("control.delay_ticks", 99); ok && sat {
			newAlpha = opts.Alpha
		}
		if newAlpha != opts.Alpha || newDecay != opts.Decay {
			opts.Alpha, opts.Decay = newAlpha, newDecay
			d.Opts = &opts
			t.alpha, t.decay = newAlpha, newDecay
			t.c.camp.Counter("control.retunes").Inc()
			t.c.emit(RetuneEvent{
				Target: t.name, Tool: ctx.Tool, Run: ctx.Run, Action: "retune",
				Detail: "unproductive detection runs",
				Alpha:  newAlpha, Decay: newDecay,
			})
		}
	}
	return d
}

// ObserveOutcome folds a finished session's outcome into the campaign
// signals: exposures feed the per-tool runs-to-exposure histogram that
// budget caps derive from. Call it once per session, after Expose
// returns. Safe on nil.
func (t *Target) ObserveOutcome(out *core.Outcome) {
	if t == nil || out == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs = len(out.Runs)
	t.c.camp.Counter("control.runs_total").Add(int64(len(out.Runs)))
	if r := out.RunsToExpose(); r > 0 {
		t.exposed = true
		t.exposedRun = r
		t.c.camp.Histogram("control.runs_to_exposure."+out.Tool, obs.RunBuckets).Observe(int64(r))
	}
}

func (t *Target) state() TargetState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TargetState{
		Name: t.name, Tool: t.tool, Runs: t.runs,
		Exposed: t.exposed, ExposedRun: t.exposedRun,
		Stopped: t.stopped, StoppedAtRun: t.stoppedAt, SavedRuns: t.saved,
		Alpha: t.alpha, Decay: t.decay, MaxRuns: t.maxRuns,
	}
}
