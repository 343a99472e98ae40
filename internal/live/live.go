// Package live runs the WAFFLE pipeline against real goroutines on the
// monotonic wall clock — the counterpart of the virtual-time simulator in
// internal/sim, and the first runtime in this repository where the
// detector's latencies are physical rather than simulated.
//
// The paper's tool instruments real C# applications and injects delays as
// actual Thread.Sleep calls on physical time; everything else in this
// repository replaces that physical substrate with a deterministic
// virtual-time world. This package closes the gap: a live Scenario body
// spawns real goroutines via Thread.Spawn, performs instrumented heap
// operations (Ref.Init / Use / Dispose) against a lock-free-on-the-hot-path
// Heap, and a Detector drives the same three-phase pipeline as the
// simulator — a delay-free preparation run recorded into the standard
// trace model, offline analysis via core.Analyze, then repeated detection
// runs where core.Injector issues real time.Sleep delays gated by the
// interference counters and decaying probabilities.
//
// Differences from the simulator, by construction:
//
//   - One engine tick is one wall-clock nanosecond (the simulator's is one
//     virtual microsecond). Timestamps are monotonic nanoseconds since run
//     start; the physical start time is reported in RunReport.WallStart.
//   - Runs are nondeterministic: a seed drives only the injector's random
//     stream, not goroutine scheduling. Exposure is therefore
//     probabilistic per run — exactly the paper's setting — while reports
//     remain zero-false-positive: a bug is reported only when the program
//     actually raises a NULL-reference fault.
//   - Fork vector clocks propagate through Spawn by explicit
//     vclock.Fork calls (there is no TLS to ride), giving the same
//     parent-child pruning as the simulator.
//   - The bug oracle is panic/recover: lifecycle violations panic with
//     *memmodel.NullRefError, and any goroutine panic (including genuine
//     nil dereferences in scenario code) is recovered, mapped to a
//     sim.Fault, and — for NULL-reference faults — to a core.BugReport.
package live

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waffle/internal/core"
	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// accessFn is the live instrumentation seam: the per-run hook invoked in
// the accessing goroutine before the access executes.
type accessFn func(t *Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind)

// runState is the shared state of one live run: the clock anchor, the
// seeded random stream, the active hook, the fault slot, and the thread
// registry whose per-thread event shards become the preparation trace.
type runState struct {
	label string
	start time.Time // run start; monotonic anchor for now()

	access    accessFn // nil for uninstrumented baseline runs
	recording bool     // preparation run: threads buffer event shards

	// merge streams sealed shard chunks into per-thread sequences while
	// the run executes; non-nil only on recording runs.
	merge *merger

	// abandonedCtr counts events dropped after abandonment (the
	// live.abandoned_events counter); resolved once so leaked goroutines
	// never touch the registry's mutex. Nil-safe.
	abandonedCtr *obs.Counter

	// abandoned marks a timed-out, walked-away-from run: threads
	// registered after the fence seal their shards immediately.
	abandoned atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	faultMu sync.Mutex
	fault   *sim.Fault

	nextTID atomic.Int64
	wg      sync.WaitGroup // every spawned goroutine

	threadMu sync.Mutex
	threads  []*Thread
}

func newRunState(spec runSpec) *runState {
	rt := &runState{
		label:        spec.label,
		start:        time.Now(),
		access:       spec.access,
		recording:    spec.recording,
		abandonedCtr: spec.metrics.Counter("live.abandoned_events"),
		rng:          rand.New(rand.NewSource(spec.seed)),
	}
	if spec.recording {
		rt.merge = newMerger()
	}
	return rt
}

// now reads the run clock: monotonic nanoseconds since run start.
func (rt *runState) now() sim.Time {
	return sim.Time(time.Since(rt.start).Nanoseconds())
}

// rand draws from the run's seeded stream. Threads share one stream under
// a mutex: the draw order is scheduling-dependent, which is fine — on real
// time the seed parameterizes the search, it does not replay it.
func (rt *runState) randFloat() float64 {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return rt.rng.Float64()
}

// register adds a thread to the run's registry and wires its shard into
// the streaming merge (recording runs). A thread registered after the run
// was abandoned — a leaked goroutine spawning — starts sealed: its events
// would never be collected, so they are dropped and counted instead of
// buffered forever.
func (rt *runState) register(t *Thread) {
	if rt.recording {
		t.events.OnDrop = rt.abandonedCtr.Inc
		if rt.merge != nil {
			spilled := false
			tid, mg := t.id, rt.merge
			t.events.OnChunk = func(c []trace.Event) {
				mg.offer(chunk{tid: tid, evs: c}, &spilled)
			}
		}
	}
	rt.threadMu.Lock()
	rt.threads = append(rt.threads, t)
	rt.threadMu.Unlock()
	// Checked after the registry append: a concurrent abandon either sees
	// this thread in the list and seals it there, or set the flag first
	// and it is sealed here — no interleaving leaves it unsealed.
	if rt.abandoned.Load() {
		t.events.Seal()
	}
}

// abandon fences off a timed-out run the detector is walking away from:
// every registered shard is sealed (leaked writers' later appends are
// dropped and counted via live.abandoned_events), and the merger — whose
// output no one will read — is told to exit. Never blocks: it runs on the
// detector's goroutine while the run's goroutines are still live.
func (rt *runState) abandon() {
	rt.abandoned.Store(true)
	rt.threadMu.Lock()
	threads := rt.threads
	rt.threadMu.Unlock()
	for _, t := range threads {
		t.events.Seal()
	}
	if rt.merge != nil {
		rt.merge.abandon()
	}
}

// recoverFault converts a goroutine panic into the run's fault, keeping
// the first one — the same "unhandled exception ends the run" semantics
// the simulator implements, via recover instead of a scheduler.
func (rt *runState) recoverFault(t *Thread) {
	r := recover()
	if r == nil {
		return
	}
	err, ok := r.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", r)
	}
	rt.faultMu.Lock()
	if rt.fault == nil {
		rt.fault = &sim.Fault{
			Err:    err,
			Thread: t.id,
			Name:   t.name,
			T:      rt.now(),
			Op:     t.op,
			Stacks: []string{fmt.Sprintf("%s@%s", t.name, t.op)},
		}
	}
	rt.faultMu.Unlock()
}

// collectTrace finalizes the streaming merge into one time-sorted trace.
// While the run executed, shard writers emitted every filled chunk through
// the lock-free ring to the merger goroutine, which folded them into
// per-thread sequences concurrently with the run — the continuous
// counterpart of the old post-join batch merge. Here, strictly after every
// shard writer has finished, the partial tail chunks are flushed, the
// merger is stopped and drained, and the per-thread sequences (in thread
// registration order, exactly as the batch AppendTo loop walked them) are
// stably sorted into the analyzer's global order.
func (rt *runState) collectTrace(seed int64, end sim.Time) *trace.Trace {
	rt.threadMu.Lock()
	threads := rt.threads
	rt.threadMu.Unlock()
	var evs []trace.Event
	if rt.merge != nil {
		for _, t := range threads {
			t.events.Flush() // writers joined: the tail chunk is safe to emit
		}
		rt.merge.stop()
		perTID := rt.merge.collected()
		for _, t := range threads {
			evs = append(evs, perTID[t.id]...)
		}
	} else {
		for _, t := range threads {
			evs = t.events.AppendTo(evs)
		}
	}
	// The analyzer requires nondecreasing timestamps; shards are merged by
	// wall-clock stamp with thread id as the (stable) tiebreaker.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].T != evs[j].T {
			return evs[i].T < evs[j].T
		}
		return evs[i].TID < evs[j].TID
	})
	for i := range evs {
		evs[i].Seq = i
	}
	return &trace.Trace{Label: rt.label, Seed: seed, End: end, Events: evs}
}

// errRunTimeout marks a run that exceeded Options.RunTimeout.
var errRunTimeout = fmt.Errorf("live: run exceeded its wall-clock budget")

// runResult is the outcome of one live run.
type runResult struct {
	end       sim.Time   // run duration in nanosecond ticks
	fault     *sim.Fault // first goroutine panic, if any
	timedOut  bool       // run exceeded its wall-clock budget
	err       error      // abnormal termination without a fault
	wallStart time.Time  // physical start time
	wallDur   time.Duration
	trace     *trace.Trace // recorded trace (preparation runs only)
}

// execResult is the run as the clock-agnostic core sees it.
func (r runResult) execResult() core.ExecResult {
	return core.ExecResult{End: r.end, Fault: r.fault, TimedOut: r.timedOut, Err: r.err}
}

// runSpec parameterizes one live run.
type runSpec struct {
	label     string
	seed      int64
	body      func(*Thread, *Heap)
	access    accessFn      // nil for uninstrumented runs
	recording bool          // stream event shards into a preparation trace
	timeout   time.Duration // wall-clock budget; <= 0 means DefaultRunTimeout
	metrics   *obs.Registry // abandonment accounting; nil disables
}

// runOnce executes one live run with the positional signature the package
// has always had; execRun is the full-spec form.
func runOnce(label string, seed int64, body func(*Thread, *Heap), access accessFn, recording bool, timeout time.Duration) runResult {
	return execRun(runSpec{
		label: label, seed: seed, body: body,
		access: access, recording: recording, timeout: timeout,
	})
}

// execRun executes one live run: the root body on a fresh goroutine plus
// everything it spawns, bounded by the spec's timeout. A timed-out run
// leaks its goroutines — they cannot be killed in Go — so its state is
// abandoned: every shard is sealed (later appends from leaked writers are
// dropped and counted, never merged) and no trace is collected.
func execRun(spec runSpec) runResult {
	rt := newRunState(spec)
	root := newThread(rt, int(rt.nextTID.Add(1)), "main")
	heap := &Heap{rt: rt}

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer rt.wg.Wait()
		defer rt.recoverFault(root)
		spec.body(root, heap)
	}()

	timeout := spec.timeout
	if timeout <= 0 {
		timeout = DefaultRunTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		rt.abandon()
		return runResult{
			end: rt.now(), timedOut: true, err: errRunTimeout,
			wallStart: rt.start, wallDur: time.Since(rt.start),
		}
	}

	end := rt.now()
	res := runResult{
		end:       end,
		fault:     rt.fault,
		wallStart: rt.start,
		wallDur:   time.Since(rt.start),
	}
	if spec.recording {
		res.trace = rt.collectTrace(spec.seed, end)
	}
	return res
}
