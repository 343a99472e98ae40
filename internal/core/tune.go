package core

// This file is the run-boundary control seam: an optional Tuner consulted
// by Session.Expose / Session.ExposeParallel between runs, able to retune
// engine options, shrink or extend the run budget, or stop a session
// early so its remaining budget can go to livelier targets.
//
// Two rules make retuning safe:
//
//   - Run-boundary only. A Tuner is never consulted while a run is in
//     flight. Injectors copy their Options at construction (NewInjector)
//     and each detection run builds a fresh injector, so an applied
//     retune affects exactly the runs that start after it — an in-flight
//     (or, on live runtimes, a leaked timed-out) run keeps the options it
//     started with.
//   - Nil is free. A session with no Tuner takes a single nil check per
//     run and behaves byte-identically to one that never had the field —
//     the disabled-controller equivalence property tested in
//     adaptive_equivalence_test.go.
//
// In ExposeParallel the boundary is the commit loop: waves fully complete
// (sched.runWave's WaitGroup) before commits run single-threaded, so a
// retune applied there cannot race a worker. Parallel sessions honor
// budget shrinks exactly (later indices are discarded like a sequential
// break) but apply option changes at wave granularity — the wave that was
// speculated under the old options still commits under them.

// TuneContext is what a Tuner sees at one run boundary.
type TuneContext struct {
	Program string
	Tool    string
	// Run is the 1-based number of the run about to start.
	Run int
	// MaxRuns is the session's current total budget (preparation included).
	MaxRuns int
	// Prev is the completed previous run's report, nil before run 1.
	Prev *RunReport
	// PrevDetection reports whether Prev was a detection run — one that
	// could have injected delays — rather than a preparation run. Dry-spell
	// accounting must ignore preparation runs: they inject nothing by
	// design.
	PrevDetection bool
	// LiveSites is the number of injection sites whose probability is
	// still positive (the tool's SiteProber), or -1 when the tool cannot
	// report it. Zero means the plan has fully decayed: no future run of
	// this session can inject, so no future run can expose (§5 requires a
	// delay to attribute a fault to).
	LiveSites int
	// Opts is the tool's current engine options; the zero Options when the
	// tool is not Retunable.
	Opts Options
	// Retunable reports whether the tool accepts SetOptions (so a returned
	// TuneDecision.Opts would take effect).
	Retunable bool
}

// TuneDecision is a Tuner's verdict for the boundary. The zero value
// changes nothing.
type TuneDecision struct {
	// Stop ends the session before the run executes; the Outcome keeps
	// the runs already performed.
	Stop bool
	// Opts, when non-nil, is applied to the tool (Retunable.SetOptions)
	// before the run starts. Ignored for tools that are not Retunable.
	Opts *Options
	// MaxRuns, when positive, replaces the session's total budget.
	// Sequential sessions honor both growth and shrink; parallel sessions
	// honor shrink only (the fan-out range is fixed when the pool starts).
	// A budget below the current run number stops the session.
	MaxRuns int
}

// Tuner is consulted at every run boundary of a Session that carries one.
// Implementations must be cheap — they run on the session's hot path —
// and must not retain ctx.Prev past the call.
type Tuner interface {
	TuneRun(ctx TuneContext) TuneDecision
}

// Retunable is an optional Tool capability: engines whose numeric options
// (alpha, decay, window) can be replaced between runs. Implementations
// guarantee that already-constructed injectors are unaffected — options
// must be copied at injector construction, never referenced.
type Retunable interface {
	// CurrentOptions returns the options the next run would use.
	CurrentOptions() Options
	// SetOptions replaces them for all runs that start afterwards.
	SetOptions(Options)
}

// SiteProber is an optional Tool capability: engines that can report how
// many injection sites remain live (probability > 0). It is the
// scale-to-zero signal — a plan-driven tool with zero live sites can
// never inject again, hence never expose again.
type SiteProber interface {
	// LiveSites returns the live-site count, or -1 when unknown.
	LiveSites() int
}

// TuneBoundary consults tuner before run executes and applies its
// decision: retuned options go to tool when it is Retunable, and
// TuneContext.LiveSites comes from tool when it is a SiteProber. It
// returns the possibly-updated budget and whether the search must stop
// before the run. A nil tuner changes nothing. Session and the live
// Detector share it, so both runtimes honor a decision the same way.
func TuneBoundary(tuner Tuner, tool any, out *Outcome, run, maxRuns int, prev *RunReport, prevDetection bool) (newMax int, stop bool) {
	if tuner == nil {
		return maxRuns, false
	}
	tc := TuneContext{
		Program: out.Program, Tool: out.Tool,
		Run: run, MaxRuns: maxRuns,
		Prev: prev, PrevDetection: prevDetection,
		LiveSites: -1,
	}
	if sp, ok := tool.(SiteProber); ok {
		tc.LiveSites = sp.LiveSites()
	}
	rt, retunable := tool.(Retunable)
	if retunable {
		tc.Opts = rt.CurrentOptions()
		tc.Retunable = true
	}
	d := tuner.TuneRun(tc)
	if d.Opts != nil && retunable {
		rt.SetOptions(*d.Opts)
	}
	if d.MaxRuns > 0 {
		maxRuns = d.MaxRuns
	}
	return maxRuns, d.Stop || run > maxRuns
}
