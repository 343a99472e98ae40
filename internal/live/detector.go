package live

import (
	"fmt"
	"sync"
	"time"

	"waffle/internal/core"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Scenario is one live program-under-test: a body that receives the root
// thread and a fresh heap. The detector executes it repeatedly — every
// run gets a new Heap and new Threads, so bodies must allocate all shared
// state inside the body (captured refs from a previous run would escape
// the oracle).
type Scenario struct {
	Name string
	Body func(*Thread, *Heap)
}

// Phases accumulates the wall-clock cost of each pipeline phase across a
// detector's lifetime — the live counterpart of the virtual-time Table 4
// metrics, and the payload of the CI live benchmark artifact.
type Phases struct {
	Prepare    time.Duration `json:"prepare_ns"`      // delay-free preparation runs
	Analyze    time.Duration `json:"analyze_ns"`      // offline trace analysis
	Detect     time.Duration `json:"detect_ns"`       // delay-injecting detection runs
	PrepRuns   int           `json:"prep_runs"`       // preparation runs performed
	DetectRuns int           `json:"detect_runs"`     // detection runs performed
	Events     int           `json:"trace_events"`    // events in the recorded trace
	Pairs      int           `json:"candidate_pairs"` // candidate set size |S|
}

// search is one target's plan across runs, shared by the Detector (one
// scenario) and the Monitor (one per request path): a recording run
// installs it, and every injecting run clones it and merges the decayed
// clone back.
type search struct {
	mu   sync.Mutex // guards plan and prep; the Monitor's requests share them
	plan *core.Plan
	prep *trace.Trace
}

// record performs a delay-free recording run and, when the run finishes
// without a fault, analyzes its trace with copts and installs the plan. A
// faulted or timed-out recording yields no usable trace: plan is nil and
// the installed plan stays as it was. took is the analysis time.
func (s *search) record(spec runSpec, copts core.Options) (res runResult, plan *core.Plan, took time.Duration) {
	spec.access, spec.recording = recordAccess, true
	res = execRun(spec)
	if res.trace == nil || res.fault != nil {
		return res, nil, 0
	}
	t0 := time.Now()
	plan = core.Analyze(res.trace, copts)
	took = time.Since(t0)
	s.mu.Lock()
	s.plan, s.prep = plan, res.trace
	s.mu.Unlock()
	return res, plan, took
}

// inject performs one injecting run from a private clone of the plan.
// Accesses to objects that pass object admission (objRate at objSeed)
// reach the injector through exec's view of the accessing thread.
//
// The clone exists because a timed-out run leaks its goroutines (Go
// cannot kill them), and the leaked threads keep calling this run's
// injector, which decays its plan's Probs map under the injector's own
// mutex. The clone keeps those writes off the shared plan — which later
// runs' injectors and direct readers (PairsAt, WriteJSON) access with no
// lock in common with the abandoned injector — and merges back only when
// the run completes normally, after every one of its goroutines has
// finished. It returns the run, its delay stats, and the clone.
func (s *search) inject(spec runSpec, copts core.Options, objSeed int64, objRate float64, exec func(*Thread) core.Exec) (runResult, core.DelayStats, *core.Plan) {
	s.mu.Lock()
	runPlan := s.plan.Clone()
	s.mu.Unlock()
	inj := core.NewInjector(runPlan, copts)
	spec.access = func(t *Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind) {
		if objRate < 1 && !admitObj(objSeed, uint64(obj), objRate) {
			return
		}
		inj.Access(exec(t), site, obj, kind, 0)
	}
	res := execRun(spec)
	stats := inj.Stats()
	if !res.timedOut {
		s.mu.Lock()
		s.plan.MergeFrom(runPlan)
		s.mu.Unlock()
	}
	return res, stats, runPlan
}

// Detector drives the full Waffle pipeline against live scenarios:
// preparation run → trace analysis → detection runs. Like core.Session's
// Tool, a Detector is stateful across runs — the plan's per-site
// probabilities decay monotonically over its lifetime, and options a
// Tuner retunes stay retuned, so reusing one Detector across Expose calls
// continues the same search.
type Detector struct {
	search
	opts   Options
	copts  core.Options // the engines' options; a Tuner may retune them
	phases Phases

	// Baseline state, measured once per Detector lifetime: the
	// uninstrumented run is an overhead denominator, not part of the
	// search, so reusing a Detector across Expose calls must not repeat
	// it.
	baseDone bool
	baseTime sim.Duration
	baseErr  error
}

// NewDetector returns a detector with opts (zero value = live defaults).
func NewDetector(opts Options) *Detector {
	opts = opts.withDefaults()
	return &Detector{opts: opts, copts: opts.coreOptions()}
}

// Plan returns the analysis plan, nil before the first successful
// preparation run.
func (d *Detector) Plan() *core.Plan { return d.plan }

// PrepTrace returns the recorded preparation trace, nil before the first
// successful preparation run.
func (d *Detector) PrepTrace() *trace.Trace { return d.prep }

// Phases returns the accumulated per-phase wall-clock costs.
func (d *Detector) Phases() Phases { return d.phases }

// LiveSites implements core.SiteProber: the plan's injection sites whose
// probability is still above zero, -1 before the plan exists.
func (d *Detector) LiveSites() int { return d.plan.LiveSites() }

// CurrentOptions implements core.Retunable.
func (d *Detector) CurrentOptions() core.Options { return d.copts }

// SetOptions implements core.Retunable: every later run of this Detector,
// in this Expose call and the next, uses opts. The metrics registry stays
// the Detector's own.
func (d *Detector) SetOptions(opts core.Options) {
	opts.Metrics = d.copts.Metrics
	d.copts = opts
}

// recordAccess is the preparation-run hook: append to the accessing
// thread's own shard — no locks, no cross-goroutine state.
func recordAccess(t *Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind) {
	t.events.Append(trace.Event{
		T: t.rt.now(), TID: t.id, Site: site, Obj: obj, Kind: kind, Clock: t.clock,
	})
}

// Expose searches for a MemOrder bug in s using at most maxRuns runs
// (preparation included; <= 0 means Options.MaxRuns), mirroring
// core.Session.Expose. Run 1 is the delay-free preparation run, analyzed
// into the plan; subsequent runs inject with decaying probabilities. The
// base seed offsets per-run injector seeds; on the wall clock it does not
// (cannot) replay scheduling. The uninstrumented baseline run behind
// Outcome.BaseTime executes once per Detector and is reused by later
// Expose calls; an abnormal baseline is reported in Outcome.BaseErr.
//
// A Tuner (Options.Tuner) is consulted at every run boundary exactly as
// core.Session consults one. Retunes are race-free by construction: each
// detection run's injector copies the options at NewInjector, so
// goroutines leaked by a timed-out run keep the options their run started
// with.
func (d *Detector) Expose(s Scenario, maxRuns int, baseSeed int64) *core.Outcome {
	out := &core.Outcome{Program: s.Name, Tool: "waffle-live"}
	if maxRuns <= 0 {
		maxRuns = d.opts.MaxRuns
	}
	m := d.opts.Metrics
	defer core.TrackRate(m, out)()
	d.baseline(s, baseSeed)
	out.BaseTime, out.BaseErr = d.baseTime, d.baseErr

	var prev *core.RunReport
	prevDetection := false
	for run := 1; run <= maxRuns; run++ {
		var stop bool
		maxRuns, stop = core.TuneBoundary(d.opts.Tuner, d, out, run, maxRuns, prev, prevDetection)
		if stop {
			return out
		}
		isDetection := d.plan != nil
		rep := core.RunReport{Run: run, Seed: baseSeed + int64(run) - 1}
		spec := runSpec{label: s.Name, seed: rep.Seed, body: s.Body, timeout: d.opts.RunTimeout, metrics: m}
		var res runResult
		switch {
		case d.plan == nil:
			// Preparation: record, never inject. A prep run that faults or
			// times out yields no usable trace; the plan stays nil and the
			// next iteration prepares again. Preparation is never sampled
			// out — without it there is no plan to sample against.
			res = d.prepare(spec)
		case !admitRun(baseSeed, run, d.opts.SampleRate):
			// Sampled out: the body runs plain — no hook, no recording, no
			// injector, no RNG draw for the admission itself (it is a
			// deterministic hash of (baseSeed, run)). The run still counts
			// against maxRuns: sampling trades detection opportunities for
			// overhead, it does not extend the budget.
			rep.SampledOut = true
			res = execRun(spec)
			d.phases.Detect += res.wallDur
			m.Counter("session.runs_sampled_out").Inc()
		default:
			res, rep.Stats, _ = d.inject(spec, d.copts, baseSeed, d.opts.ObjectRate, func(t *Thread) core.Exec { return t.ex })
			d.phases.Detect += res.wallDur
			d.phases.DetectRuns++
			m.Span("phase.detect").Observe(res.wallDur)
		}
		rep.WallStart, rep.WallDur = res.wallStart, res.wallDur
		r, faulted := core.FoldRun(out, rep, res.execResult(), d.plan.PairsAt, m)
		if faulted {
			return out
		}
		prev, prevDetection = r, isDetection
	}
	return out
}

// baseline measures the uninstrumented run once per Detector. A faulted or
// timed-out baseline is no overhead denominator: its truncated duration
// would understate BaseTime and inflate every overhead ratio, so it
// records nothing and surfaces the abnormality instead.
func (d *Detector) baseline(s Scenario, seed int64) {
	if d.baseDone {
		return
	}
	d.baseDone = true
	base := execRun(runSpec{
		label: s.Name, seed: seed, body: s.Body,
		timeout: d.opts.RunTimeout, metrics: d.opts.Metrics,
	})
	switch {
	case base.timedOut:
		d.baseErr = fmt.Errorf("live: uninstrumented baseline run timed out after %v", base.wallDur)
	case base.fault != nil:
		d.baseErr = fmt.Errorf("live: uninstrumented baseline run faulted: %w", base.fault.Err)
	default:
		d.baseTime = sim.Duration(base.end)
	}
}

// prepare performs one preparation run and accounts for it in the phases.
func (d *Detector) prepare(spec runSpec) runResult {
	res, plan, took := d.record(spec, d.copts)
	d.phases.Prepare += res.wallDur
	d.phases.PrepRuns++
	d.opts.Metrics.Span("phase.prepare").Observe(res.wallDur)
	if plan != nil {
		d.phases.Analyze += took
		d.phases.Events = len(res.trace.Events)
		d.phases.Pairs = len(plan.Pairs)
	}
	return res
}

// Prepare performs only the delay-free preparation run and analysis,
// returning the resulting plan (nil if the run faulted or timed out).
// Useful for measuring the preparation phase in isolation and for the
// "prep alone does not expose" control runs.
func (d *Detector) Prepare(s Scenario, seed int64) (*core.Plan, *core.RunReport) {
	res := d.prepare(runSpec{
		label: s.Name, seed: seed, body: s.Body,
		timeout: d.opts.RunTimeout, metrics: d.opts.Metrics,
	})
	rep := &core.RunReport{
		Run: 1, Seed: seed, End: res.end,
		TimedOut: res.timedOut, Fault: res.fault,
		WallStart: res.wallStart, WallDur: res.wallDur,
	}
	if res.fault == nil && !res.timedOut {
		rep.Err = res.err
	}
	if res.trace == nil || res.fault != nil {
		return nil, rep
	}
	return d.plan, rep
}
