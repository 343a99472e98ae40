package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"waffle/internal/memmodel"
	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Program is one program-under-test plus one test input: something that can
// be executed repeatedly under different seeds and instrumentation hooks.
// Implementations build a fresh world and heap per call (a detection tool
// never reuses program state across runs).
type Program interface {
	// Name identifies the program/test for reports.
	Name() string
	// Execute runs the program once. hook may be nil (uninstrumented
	// baseline). The seed controls scheduling and jitter.
	Execute(seed int64, hook memmodel.Hook) ExecResult
}

// ExecResult is the outcome of one program execution.
type ExecResult struct {
	End      sim.Time   // virtual end time of the run
	Fault    *sim.Fault // unhandled exception, if the run crashed
	TimedOut bool       // the run exceeded its virtual-time budget
	Err      error      // any other abnormal termination (deadlock, limits)
	TSVs     int        // thread-safety violations that manifested (§2)
}

// Tool is a delay-injection detector driven run by run: Waffle,
// WaffleBasic, or an ablation. Tools are stateful across runs (candidate
// sets, probabilities, plans persist).
type Tool interface {
	// Name identifies the tool for reports.
	Name() string
	// HookForRun returns the instrumentation hook for run (1-based).
	// prev is the report of the previous run, nil for run 1.
	HookForRun(run int, prev *RunReport) memmodel.Hook
	// RunStats reports the delay activity of the hook returned last.
	RunStats() DelayStats
	// Candidates returns the live candidate pairs involving site, used to
	// attribute a manifested fault back to the plan.
	Candidates(site trace.SiteID) []Pair
}

// RunOutcome classifies how one run ended, distinguishing in particular a
// NULL reference fault that followed an injected delay (a reportable bug,
// §5's zero-false-positive contract) from one that manifested with no
// delay injected (a flaky program fault Waffle must NOT claim credit for).
type RunOutcome int

const (
	// RunClean: the run finished normally without a fault.
	RunClean RunOutcome = iota
	// RunFaultBug: a NULL reference fault manifested after at least one
	// injected delay — the run produced a BugReport.
	RunFaultBug
	// RunFaultDelayFree: a NULL reference fault manifested in a run with
	// zero injected delays. The fault cannot be a consequence of delay
	// injection, so no BugReport is produced; the fault itself is surfaced
	// via RunReport.Fault and Outcome.DelayFreeFaults.
	RunFaultDelayFree
	// RunFaultOther: the run faulted with something other than a NULL
	// reference error (e.g. a harness assertion).
	RunFaultOther
	// RunTimedOut: the run exceeded its time budget.
	RunTimedOut
	// RunError: the run ended abnormally without a fault (deadlock, event
	// limit, cancellation).
	RunError
)

// String renders the outcome for reports and the JSONL run sink.
func (ro RunOutcome) String() string {
	switch ro {
	case RunClean:
		return "clean"
	case RunFaultBug:
		return "fault-bug"
	case RunFaultDelayFree:
		return "fault-delay-free"
	case RunFaultOther:
		return "fault-other"
	case RunTimedOut:
		return "timeout"
	case RunError:
		return "error"
	default:
		return fmt.Sprintf("RunOutcome(%d)", int(ro))
	}
}

// RunReport describes one completed run of a session.
type RunReport struct {
	Run int // 1-based run number
	// Seed is the seed used for the run. Under the simulator it is the
	// world seed and makes the run bit-for-bit reproducible. On live
	// (wall-clock) runs it only drives the injector's RNG — physical
	// scheduling is nondeterministic, so the same seed does not replay
	// the same interleaving.
	Seed     int64
	End      sim.Time   // end time in run ticks (virtual µs; wall-clock ns duration on live runs)
	TimedOut bool       // run hit its time budget
	Fault    *sim.Fault // fault that ended the run, if any
	Err      error      // abnormal termination without a fault: deadlock, limits, cancellation
	Stats    DelayStats // delay activity during the run
	Outcome  RunOutcome // how the run ended (distinguishes delay-free faults)

	// SampledOut marks a live detection run that sampling admission left
	// uninstrumented: the body executed plain, with no recording and no
	// injection, so the run can observe a delay-free fault but can never
	// produce a BugReport.
	SampledOut bool

	// WallStart and WallDur stamp the run's physical start time and
	// duration. They are set only by the live runtime, where latencies are
	// wall-clock real; simulated runs leave them zero.
	WallStart time.Time
	WallDur   time.Duration
}

// FenceProposal is the machine-checkable repair emitted with every
// confirmed stale-read bug: a full fence (store-buffer drain) placed
// after the buffered write and ordered before the stale read forbids the
// exposing schedule — and every schedule like it — outright. The pair is
// derived from the exposing run itself: the StaleReadError names the
// still-buffered store the faulting read observed around, so (After,
// Before) is exactly the ordering edge the program is missing ("Don't sit
// on the fence"'s placement question answered by the witness schedule).
type FenceProposal struct {
	// After is the store site whose buffered value went stale: the fence
	// goes immediately after this write.
	After trace.SiteID `json:"after"`
	// Before is the read site that observed the stale state: the fence
	// must order the committed write before it.
	Before trace.SiteID `json:"before"`
}

// String renders the proposal as an actionable edit.
func (f *FenceProposal) String() string {
	return fmt.Sprintf("insert fence after %s (orders the write before %s)", f.After, f.Before)
}

// BugReport is emitted when a delay-injection run manifests a NULL
// reference fault (§5: faulty input, candidate locations involved, stack
// traces, and delay information) — or, in TSO mode, a stale-read fault.
// Exactly one of NullRef and Stale is set.
type BugReport struct {
	Program    string
	Tool       string
	Run        int   // run that exposed the bug (1-based, prep included)
	Seed       int64 // seed of the exposing run
	Fault      *sim.Fault
	NullRef    *memmodel.NullRefError
	Stale      *memmodel.StaleReadError // TSO stale-read manifestation
	Fence      *FenceProposal           // repair proposal; set iff Stale is
	Candidates []Pair                   // plan pairs involving the faulting site
	Delays     DelayStats               // delays injected in the exposing run
}

// Kind reports the bug class, derived from the fault.
func (b *BugReport) Kind() BugKind {
	if b.Stale != nil {
		return StaleRead
	}
	if b.NullRef != nil && b.NullRef.State == memmodel.StateDisposed {
		return UseAfterFree
	}
	return UseBeforeInit
}

// ObjName returns the faulting object's declared name, whichever fault
// class manifested.
func (b *BugReport) ObjName() string {
	if b.Stale != nil {
		return b.Stale.Name
	}
	if b.NullRef != nil {
		return b.NullRef.Name
	}
	return ""
}

// FaultSite returns the site of the faulting access, whichever fault class
// manifested.
func (b *BugReport) FaultSite() trace.SiteID {
	if b.Stale != nil {
		return b.Stale.Site
	}
	if b.NullRef != nil {
		return b.NullRef.Site
	}
	return ""
}

// String renders a one-line summary.
func (b *BugReport) String() string {
	s := fmt.Sprintf("%s: %s exposed %s at %s in run %d (seed %d)",
		b.Program, b.Tool, b.Kind(), b.FaultSite(), b.Run, b.Seed)
	if b.Fence != nil {
		s += " — " + b.Fence.String()
	}
	return s
}

// Outcome is the result of a full Expose search.
type Outcome struct {
	Program   string
	Tool      string
	Bug       *BugReport  // nil when no bug manifested within MaxRuns
	Runs      []RunReport // every run performed, in order
	TotalTime sim.Duration
	BaseTime  sim.Duration // uninstrumented single-run time; zero when the baseline was abnormal

	// BaseErr reports an abnormal (faulted or timed-out) uninstrumented
	// baseline run. When set, BaseTime is zero and Slowdown returns 0
	// rather than a ratio over a truncated denominator. Only runtimes
	// that execute a real baseline set it (the live detector does; the
	// simulator's baseline is deterministic and cannot fail this way).
	BaseErr error

	// DelayFreeFaults lists runs (1-based) that raised a NULL reference
	// fault with zero injected delays. Per the zero-false-positive contract
	// (§5) such faults cannot be attributed to delay injection and produce
	// no BugReport; they are surfaced here (and via RunReport.Fault /
	// RunReport.Outcome) so a flaky program-under-test is visible rather
	// than silently swallowed or falsely claimed.
	DelayFreeFaults []int
}

// RunErrs aggregates the abnormal terminations across the outcome's runs:
// one error per run whose world ended in a deadlock, a limit kill, or a
// cancellation rather than a clean finish or a fault. A search that
// silently loses these records a deadlocked run as a normal one, which
// understates both the bug surface and the time spent.
func (o *Outcome) RunErrs() []error {
	var errs []error
	for _, r := range o.Runs {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("run %d (seed %d): %w", r.Run, r.Seed, r.Err))
		}
	}
	return errs
}

// RunsToExpose reports the number of runs used to expose the bug
// (preparation run included), or 0 if no bug was exposed. This is the
// "# of detection runs" metric of Table 4.
func (o *Outcome) RunsToExpose() int {
	if o.Bug == nil {
		return 0
	}
	return o.Bug.Run
}

// Slowdown reports end-to-end detection time over the uninstrumented
// base run time (Table 4's "Detection slowdown").
func (o *Outcome) Slowdown() float64 {
	if o.BaseTime <= 0 {
		return 0
	}
	return float64(o.TotalTime) / float64(o.BaseTime)
}

// Session drives one Tool against one Program until a bug manifests or the
// run budget is exhausted.
type Session struct {
	Prog     Program
	Tool     Tool
	MaxRuns  int   // total run budget, preparation included
	BaseSeed int64 // run i uses seed BaseSeed+i-1

	// RunBudget, when positive, bounds each detection run's wall-clock
	// time in ExposeParallel: a run still going when the budget lapses is
	// canceled and recorded with an ErrCanceled run error. Virtual-time
	// limits (SimProgram.MaxTime) cannot catch a run stuck without
	// advancing virtual time; this can. Zero means no budget.
	RunBudget time.Duration

	// Metrics receives session-level campaign counters (runs, faults,
	// bugs exposed, runs/sec) and per-run JSONL events. Nil disables all
	// session instrumentation. Independent of the engines' Options.Metrics
	// so a caller can meter sessions without metering injectors, though
	// normally both point at the same registry.
	Metrics *obs.Registry

	// Tuner, when non-nil, is consulted at every run boundary and may
	// retune the tool's options, change the budget, or stop the session
	// (see tune.go). Nil — the default — costs one nil check per run and
	// leaves the search byte-identical to a session without the field.
	Tuner Tuner
}

// Expose performs up to MaxRuns runs, returning the outcome. A run that
// raises a NULL reference fault ends the search with a BugReport; faults
// of other types (assertion failures in the harness itself) surface as the
// final RunReport without a BugReport.
func (s *Session) Expose() *Outcome {
	return s.ExposeCtx(context.Background())
}

// ExposeCtx is Expose under a caller context: the search stops at the
// first run boundary after ctx is done, returning the runs committed so
// far, and the run in flight aborts early when the program honors
// cancellation (ContextProgram). With a Background context the search is
// byte-identical to Expose — Background's Done channel is nil, so the
// simulator sees exactly the cancel-free configuration.
func (s *Session) ExposeCtx(ctx context.Context) *Outcome {
	st := s.begin()
	defer st.end()
	s.runs(ctx, st, 0)
	return st.out
}

// search is one Expose call's state between runs: the outcome so far, the
// last committed run, the current budget, and the open phase span.
type search struct {
	out     *Outcome
	prev    *RunReport
	maxRuns int
	// firstDetection is the first run after the plan exists. Runs before
	// it are the "prepare" phase, the rest "detect"; tools without a
	// preparation phase (online identification) spend the whole search in
	// "detect".
	firstDetection int
	stopSpan       func() // ends the open phase span; a no-op without a registry
	stopRate       func() // publishes session.runs_per_sec
}

// begin starts a search: the rate clock, the uninstrumented baseline, and
// the preparation span when the tool prepares.
func (s *Session) begin() *search {
	out := &Outcome{Program: s.Prog.Name(), Tool: s.Tool.Name()}
	st := &search{out: out, maxRuns: s.MaxRuns, firstDetection: 1, stopSpan: func() {}, stopRate: TrackRate(s.Metrics, out)}
	if st.maxRuns <= 0 {
		st.maxRuns = DefaultMaxRuns
	}
	out.BaseTime = s.Baseline()
	if pd, ok := s.Tool.(PlanDriven); ok && pd.PrepRunCount() >= 0 {
		st.firstDetection = 1 + pd.PrepRunCount()
	}
	if st.firstDetection > 1 {
		st.stopSpan = s.Metrics.Span("phase.prepare").Time()
	}
	return st
}

// end closes the open phase span and publishes the run rate.
func (st *search) end() {
	st.stopSpan()
	st.stopRate()
}

// runs performs the sequential search from run 1. With handoff > 0 it
// stops before executing run handoff — after that run's context check,
// tuner boundary and phase switch — and reports true, leaving the rest of
// the search to the caller. Otherwise it reports false: the search ended.
func (s *Session) runs(ctx context.Context, st *search, handoff int) bool {
	for run := 1; run <= st.maxRuns; run++ {
		if ctx.Err() != nil {
			return false
		}
		var stop bool
		st.maxRuns, stop = TuneBoundary(s.Tuner, s.Tool, st.out, run, st.maxRuns, st.prev, run > st.firstDetection)
		if stop {
			return false
		}
		if run == st.firstDetection {
			st.stopSpan()
			st.stopSpan = s.Metrics.Span("phase.detect").Time()
		}
		if run == handoff {
			return true
		}
		seed := s.BaseSeed + int64(run) - 1
		hook := s.Tool.HookForRun(run, st.prev)
		res := s.execute(ctx, seed, hook)
		rep, faulted := FoldRun(st.out, RunReport{Run: run, Seed: seed, Stats: s.Tool.RunStats()}, res, s.Tool.Candidates, s.Metrics)
		if faulted {
			return false
		}
		st.prev = rep
	}
	return false
}

// execute performs one run, routing through the program's cancellable
// entry point only when the context can actually fire (Done non-nil). An
// uncancellable context — Background, the wrappers' default — takes the
// plain Execute path, so Expose/ExposeParallel keep their exact historic
// behavior even for programs whose ExecuteCtx differs from Execute.
func (s *Session) execute(ctx context.Context, seed int64, hook memmodel.Hook) ExecResult {
	if cp, ok := s.Prog.(ContextProgram); ok && ctx.Done() != nil {
		return cp.ExecuteCtx(ctx, seed, hook)
	}
	return s.Prog.Execute(seed, hook)
}

// TrackRate returns a stop function that publishes a search's wall-clock
// run throughput — len(out.Runs) over the time since TrackRate was called
// — to m's session.runs_per_sec gauge. With no registry the clock is never
// read.
func TrackRate(m *obs.Registry, out *Outcome) func() {
	if m == nil {
		return func() {}
	}
	g := m.Gauge("session.runs_per_sec")
	t0 := time.Now()
	return func() {
		if el := time.Since(t0).Seconds(); el > 0 {
			g.Set(float64(len(out.Runs)) / el)
		}
	}
}

// FoldRun turns one finished run into results; every search loop — the
// sequential and parallel sessions here and the live runtime's — calls
// it. rep carries the run's number, seed, delay stats, and any
// runtime-specific fields; FoldRun completes it from res and appends it to
// out — abnormal terminations included, which must not be silently
// dropped.
//
// A NULL reference or stale-read fault after at least one injected delay
// (stats.Count counts flush delays too — a visibility delay is an
// injection like any other) becomes out.Bug, with the plan pairs
// candidates names for the faulting site and, for a stale read, the fence
// proposal. The same fault in a run with zero injected delays cannot be a
// consequence of a delay (§5's zero-false-positive contract), so it yields
// no BugReport: the run is classified RunFaultDelayFree and listed in
// out.DelayFreeFaults instead.
//
// The run is metered to m — the session.* counters and the opt-in JSONL
// run event; nil disables both. FoldRun reports whether the run faulted,
// which ends the search whatever the fault: the program is crashing under
// the tool's feet either way.
func FoldRun(out *Outcome, rep RunReport, res ExecResult, candidates func(trace.SiteID) []Pair, m *obs.Registry) (*RunReport, bool) {
	rep.End, rep.TimedOut, rep.Fault = res.End, res.TimedOut, res.Fault
	if res.Fault == nil && !res.TimedOut {
		// Deadlocks, event-limit kills, and cancellations have no Fault and
		// no dedicated field: without this the run would read as normal.
		rep.Err = res.Err
	}
	switch {
	case res.Fault != nil:
		rep.Outcome = RunFaultOther // refined below for NullRef and stale-read faults
	case res.TimedOut:
		rep.Outcome = RunTimedOut
	case rep.Err != nil:
		rep.Outcome = RunError
	}
	out.Runs = append(out.Runs, rep)
	out.TotalTime += sim.Duration(res.End)
	r := &out.Runs[len(out.Runs)-1]

	if res.Fault != nil {
		report := func(site trace.SiteID) *BugReport {
			if r.Stats.Count == 0 {
				r.Outcome = RunFaultDelayFree
				out.DelayFreeFaults = append(out.DelayFreeFaults, r.Run)
				return nil
			}
			r.Outcome = RunFaultBug
			return &BugReport{
				Program:    out.Program,
				Tool:       out.Tool,
				Run:        r.Run,
				Seed:       r.Seed,
				Fault:      res.Fault,
				Candidates: candidates(site),
				Delays:     r.Stats,
			}
		}
		var nre *memmodel.NullRefError
		var sre *memmodel.StaleReadError
		switch {
		case errors.As(res.Fault.Err, &nre):
			if b := report(nre.Site); b != nil {
				b.NullRef = nre
				out.Bug = b
			}
		case errors.As(res.Fault.Err, &sre):
			if b := report(sre.Site); b != nil {
				b.Stale = sre
				b.Fence = &FenceProposal{After: sre.PendingSite, Before: sre.Site}
				out.Bug = b
			}
		}
	}
	meterRun(m, out, r)
	return r, res.Fault != nil
}

// meterRun publishes one completed run to the session registry: aggregate
// counters plus the opt-in per-run JSONL event. No-op without a registry.
func meterRun(m *obs.Registry, out *Outcome, rep *RunReport) {
	if m == nil {
		return
	}
	m.Counter("session.runs").Inc()
	switch rep.Outcome {
	case RunFaultBug:
		m.Counter("session.faults").Inc()
		m.Counter("session.bugs_exposed").Inc()
		m.Histogram("session.runs_to_exposure", obs.RunBuckets).Observe(int64(rep.Run))
	case RunFaultDelayFree:
		m.Counter("session.faults").Inc()
		m.Counter("session.delay_free_faults").Inc()
	case RunFaultOther:
		m.Counter("session.faults").Inc()
	case RunTimedOut:
		m.Counter("session.runs_timed_out").Inc()
	case RunError:
		m.Counter("session.run_errors").Inc()
	}
	m.EmitRun(obs.RunEvent{
		Program:    out.Program,
		Tool:       out.Tool,
		Run:        rep.Run,
		Seed:       rep.Seed,
		EndTicks:   int64(rep.End),
		Delays:     rep.Stats.Count,
		DelayTicks: int64(rep.Stats.Total),
		Skipped:    rep.Stats.Skipped,
		Outcome:    rep.Outcome.String(),
	})
}

// Baseline measures the program's uninstrumented single-run time at the
// session's base seed.
func (s *Session) Baseline() sim.Duration {
	res := s.Prog.Execute(s.BaseSeed, nil)
	return sim.Duration(res.End)
}
