// Package waffle is a Go reproduction of Waffle (Stoica et al., EuroSys
// '23): an active delay-injection tool that exposes MemOrder bugs —
// use-before-initialization and use-after-free order violations between
// threads — with a delay-free preparation run, offline trace analysis, and
// interference-aware variable-length delay injection.
//
// The package is the public façade over the repository's internal
// packages. A user describes a program under test as a Scenario whose Body
// performs heap-object operations (Init/Use/Dispose) on Refs inside a
// deterministic virtual-time world, then drives a Detector against it:
//
//	scenario := waffle.Scenario{
//	    Name: "quickstart",
//	    Body: func(t *waffle.Thread, h *waffle.Heap) {
//	        obj := h.NewRef("conn")
//	        obj.Init(t, "main.go:10")
//	        worker := t.Spawn("worker", func(w *waffle.Thread) {
//	            w.Sleep(1 * waffle.Millisecond)
//	            obj.Use(w, "worker.go:7") // races the dispose below
//	        })
//	        t.Sleep(3 * waffle.Millisecond)
//	        obj.Dispose(t, "main.go:20")
//	        t.Join(worker)
//	    },
//	}
//	outcome := waffle.New(waffle.Options{}).Expose(scenario, 10, 1)
//	if outcome.Bug != nil {
//	    fmt.Println(outcome.Bug) // use-after-free at worker.go:7, run 2
//	}
//
// The same scenario can be run under the WaffleBasic baseline (NewBasic)
// to compare designs, and Benchmarks exposes the paper's 11-application
// evaluation suite with its 18 planted bugs.
package waffle

import (
	"io"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/wafflebasic"
)

// Re-exported types: the full vocabulary needed to write scenarios and
// interpret outcomes, without importing internal packages.
type (
	// Options configures the detector (near-miss window, delay scaling,
	// probability decay, and the Table 7 ablation switches).
	Options = core.Options
	// Outcome is the result of an Expose search.
	Outcome = core.Outcome
	// BugReport describes one manifested MemOrder bug.
	BugReport = core.BugReport
	// RunReport describes one run of a session.
	RunReport = core.RunReport
	// Pair is one candidate location pair {ℓ1, ℓ2} of the candidate set S.
	Pair = core.Pair
	// Plan is the persisted output of trace analysis (S, I, delay
	// lengths, probabilities).
	Plan = core.Plan
	// BugKind distinguishes use-before-init from use-after-free.
	BugKind = core.BugKind

	// Thread is a cooperatively scheduled virtual-time thread.
	Thread = sim.Thread
	// Heap allocates the reference cells scenarios operate on.
	Heap = memmodel.Heap
	// Ref is one instrumented heap reference cell.
	Ref = memmodel.Ref
	// Mutex, WaitGroup, Event, Queue, Semaphore are virtual-time
	// synchronization primitives for scenario bodies.
	Mutex     = sim.Mutex
	WaitGroup = sim.WaitGroup
	Event     = sim.Event
	Queue     = sim.Queue
	Semaphore = sim.Semaphore
	// TaskPool and TaskHandle provide task-oriented scenarios: tasks run
	// on pool worker threads under async-local contexts, and Waffle's
	// fork clocks propagate submit→task exactly as they propagate
	// parent→child threads (§4.1's async-local note).
	TaskPool   = sim.TaskPool
	TaskHandle = sim.TaskHandle
	// RWMutex and Cond complete the virtual-time primitive set.
	RWMutex = sim.RWMutex
	Cond    = sim.Cond

	// Duration and Time are virtual-time measures (microsecond ticks).
	Duration = sim.Duration
	Time     = sim.Time
	// SiteID names a static program location.
	SiteID = trace.SiteID

	// App and Test expose the paper's benchmark suite.
	App  = apps.App
	Test = apps.Test
)

// Virtual-time units for scenario bodies.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Bug kinds.
const (
	UseBeforeInit = core.UseBeforeInit
	UseAfterFree  = core.UseAfterFree
)

// Scenario describes one program under test: a named body executed in a
// fresh virtual-time world per run.
type Scenario struct {
	// Name labels reports.
	Name string
	// Timeout bounds each run's virtual time (0 = unbounded).
	Timeout Duration
	// Jitter is the relative spread on Work durations (default 0.05).
	Jitter float64
	// Body is the program: threads performing instrumented operations.
	// Each run's world and heap are recycled once the run is over, so the
	// body must keep none of its threads, references or synchronization
	// primitives for a later run.
	Body func(t *Thread, h *Heap)
}

// program adapts a Scenario to the internal Program interface.
func (s Scenario) program() core.Program {
	jitter := s.Jitter
	if jitter == 0 {
		jitter = 0.05
	}
	return &core.SimProgram{Label: s.Name, MaxTime: s.Timeout, Jitter: jitter, Body: s.Body}
}

// Detector drives Waffle (or a baseline) against scenarios.
type Detector struct {
	opts  Options
	basic bool
	plan  *Plan
}

// New returns a Waffle detector. Zero Options mean the paper's defaults
// (δ = 100ms, α = 1.15, λ = 0.1); the Disable* fields select the Table 7
// ablations.
func New(opts Options) *Detector { return &Detector{opts: opts} }

// NewBasic returns the WaffleBasic baseline (§3): TSVD's design
// transplanted onto MemOrder sites — same-run identification, fixed 100ms
// delays, happens-before inference, unrestricted parallel delays.
func NewBasic(opts Options) *Detector { return &Detector{opts: opts, basic: true} }

// Expose searches for a MemOrder bug in the scenario: up to maxRuns runs
// (the preparation run included), seeded from baseSeed. The returned
// Outcome carries per-run reports, the baseline time, and the BugReport if
// one manifested.
func (d *Detector) Expose(s Scenario, maxRuns int, baseSeed int64) *Outcome {
	session := &core.Session{
		Prog:     s.program(),
		Tool:     d.tool(),
		MaxRuns:  maxRuns,
		BaseSeed: baseSeed,
	}
	return session.Expose()
}

// ExposeTest runs the detector against one benchmark-suite test.
func (d *Detector) ExposeTest(t *Test, maxRuns int, baseSeed int64) *Outcome {
	session := &core.Session{
		Prog:     t.Prog,
		Tool:     d.tool(),
		MaxRuns:  maxRuns,
		BaseSeed: baseSeed,
	}
	return session.Expose()
}

func (d *Detector) tool() core.Tool {
	if d.basic {
		return wafflebasic.New(d.opts)
	}
	if d.plan != nil {
		return core.NewWaffleWithPlan(d.plan, d.opts)
	}
	return core.NewWaffle(d.opts)
}

// ExecResult is the outcome of one uninstrumented scenario execution.
type ExecResult = core.ExecResult

// Prepare performs the delay-free preparation run (Figure 3) on the
// scenario and returns the analyzed plan: the candidate set S with
// fork-ordered pairs pruned, per-site delay lengths, and the interference
// set I. The plan round-trips through JSON (Plan.WriteJSON / LoadPlan) so
// detection can resume in a later process, mirroring the paper's on-disk
// bootstrap.
func Prepare(s Scenario, opts Options, seed int64) *Plan {
	opts = opts.WithDefaults()
	rec := trace.NewRecorder(s.Name, seed)
	res := s.program().Execute(seed, core.NewPrepHook(rec, opts))
	return core.Analyze(rec.Finish(res.End), opts)
}

// LoadPlan reads a plan written by Plan.WriteJSON.
func LoadPlan(r io.Reader) (*Plan, error) { return core.ReadPlanJSON(r) }

// NewWithPlan returns a detector bootstrapped from a previously analyzed
// plan: every run is a detection run, and the plan's probabilities decay
// in place across them.
func NewWithPlan(plan *Plan, opts Options) *Detector {
	return &Detector{opts: opts, plan: plan}
}

// NewTaskPool spawns n pool worker threads owned by t. Tasks submitted to
// the pool carry async-local contexts forked from their submitter.
func NewTaskPool(t *Thread, n int, name string) *TaskPool {
	return sim.NewTaskPool(t, n, name)
}

// Select waits on several queues at once (optionally bounded by d; d ≤ 0
// waits forever), returning the delivering queue's index.
func Select(t *Thread, d Duration, queues ...*Queue) (idx int, v any, ok bool) {
	return sim.Select(t, d, queues...)
}

// ReplayResult reports a deterministic reproduction attempt.
type ReplayResult = core.ReplayResult

// Replay turns a probabilistic exposure into a deterministic reproducer:
// it re-runs the scenario at the exposing seed with a minimal, fully
// serialized plan containing only the culprit candidate pair(s), and
// reports whether the same fault fired.
func Replay(s Scenario, bug *BugReport, opts Options) ReplayResult {
	return core.Replay(s.program(), bug, opts)
}

// RunOnce executes the scenario once with no instrumentation and no
// delays — useful for validating a scenario's natural timing before
// running detection, and for hand-crafted delay experiments where the
// body itself models the injection.
func RunOnce(s Scenario, seed int64) ExecResult {
	return s.program().Execute(seed, nil)
}

// Benchmarks returns the paper's 11-application evaluation suite (Table 3)
// with its multi-threaded tests and the 18 planted MemOrder bugs (Table 4).
func Benchmarks() []*App { return apps.Registry() }

// Benchmark returns one suite application by name, or nil.
func Benchmark(name string) *App { return apps.ByName(name) }

// Bugs returns the 18 planted bug tests in Table 4 order.
func Bugs() []*Test { return apps.AllBugs() }
