package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/stats"
	"waffle/internal/trace"
)

// simLayers accumulates the per-layer numbers of a traced simulator pass.
// Every figure is taken around a call into a layer's public surface from
// this package: a delegating core.Program (sim), a delegating core.Tool
// whose hooks delegate to the tool's (inject), and standalone calls of
// core.Analyze and Injector.Access on each preparation trace (analyze,
// inject). The program itself carries no extra tracing; its own obs
// counters are read from the registry attached for the traced pass only.
type simLayers struct {
	reg *obs.Registry

	baseline, prep, detect samples // Execute wall time per run, µs
	generate               samples // genprog.Generate wall time, µs
	recordNS               float64
	recordAllocs           float64
	events                 int64
	analyzeNS              float64
	accessNS               float64
	accessCalls            int64
	accesses               atomic.Int64
}

func newSimLayers() *simLayers { return &simLayers{reg: obs.New()} }

// registry is the traced pass's registry; nil (instrumentation off) on a
// nil receiver, which is the untraced measurement.
func (l *simLayers) registry() *obs.Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// session wraps tool so that one session's hook calls are counted, and
// has tp, the session's timed program, count the allocations of the
// baseline and preparation runs. The returned finish folds the session's
// runs and preparation trace into the sim, trace, analyze and inject
// figures.
func (l *simLayers) session(tp *timedProgram, tool *core.Waffle) (core.Tool, func()) {
	tp.countAllocs = true
	return &countedTool{Waffle: tool, n: &l.accesses}, func() {
		l.baseline = append(l.baseline, tp.runs[:min(1, len(tp.runs))]...)
		if len(tp.runs) > 1 {
			l.prep = append(l.prep, tp.runs[1])
			l.detect = append(l.detect, tp.runs[2:]...)
		}
		tr := tool.PrepTrace()
		if tr == nil || len(tp.runs) < 2 {
			return
		}
		n := int64(len(tr.Events))
		l.events += n
		l.recordNS += (tp.runs[1] - tp.runs[0]) * 1e3
		l.recordAllocs += float64(tp.allocs[1]) - float64(tp.allocs[0])
		opts := tool.CurrentOptions()
		opts.Metrics = nil // the session's own analysis already fed the registry
		t0 := time.Now()
		plan := core.Analyze(tr, opts)
		l.analyzeNS += float64(time.Since(t0).Nanoseconds())
		l.accessNS += replayAccess(plan, tr, opts)
		l.accessCalls += n
	}
}

// timedProgram times every Execute of the program it delegates to: the
// benchmark's per-run latency. Under core.Session the first call is the
// uninstrumented baseline and the second the preparation run; with
// countAllocs it also counts the heap allocations of those two.
type timedProgram struct {
	core.Program
	countAllocs bool
	runs        samples // wall µs per call, in call order
	allocs      [2]uint64
}

func (p *timedProgram) Execute(seed int64, hook memmodel.Hook) core.ExecResult {
	i := len(p.runs)
	count := p.countAllocs && i < 2
	var a0 uint64
	if count {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	res := p.Program.Execute(seed, hook)
	p.runs = append(p.runs, float64(time.Since(t0).Nanoseconds())/1e3)
	if count {
		p.allocs[i] = heapAllocs() - a0
	}
	return res
}

// runsMS returns the per-run wall times in milliseconds.
func (p *timedProgram) runsMS() samples {
	out := make(samples, len(p.runs))
	for i, us := range p.runs {
		out[i] = us / 1e3
	}
	return out
}

// countedTool delegates to a Waffle tool and counts the accesses reaching
// each hook it hands out. It forwards core.PlanDriven, so a session sees
// the same preparation/detection split as with the bare tool.
type countedTool struct {
	*core.Waffle
	n *atomic.Int64
}

func (t *countedTool) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	return countingHook{Hook: t.Waffle.HookForRun(run, prev), n: t.n}
}

// countingHook is a delegating memmodel.Hook that counts calls.
type countingHook struct {
	memmodel.Hook
	n *atomic.Int64
}

func (h countingHook) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	h.n.Add(1)
	h.Hook.OnAccess(t, site, obj, kind, dur)
}

// replayAccess times Injector.Access over every event of a preparation
// trace against a fresh injector for plan, with an Exec whose sleeps only
// advance a counter: the decision cost of the injection layer per access,
// free of the scheduler time a real delay hands to other threads. It
// returns the total nanoseconds.
func replayAccess(plan *core.Plan, tr *trace.Trace, opts core.Options) float64 {
	inj := core.NewInjector(plan.Clone(), opts)
	e := &replayExec{rng: rand.New(rand.NewSource(tr.Seed))}
	t0 := time.Now()
	for i := range tr.Events {
		ev := &tr.Events[i]
		e.id, e.now = ev.TID, ev.T
		inj.Access(e, ev.Site, ev.Obj, ev.Kind, ev.Dur)
	}
	return float64(time.Since(t0).Nanoseconds())
}

// replayExec is a core.Exec on a counter clock.
type replayExec struct {
	id  int
	now sim.Time
	rng *rand.Rand
}

func (e *replayExec) ID() int              { return e.id }
func (e *replayExec) Now() sim.Time        { return e.now }
func (e *replayExec) Sleep(d sim.Duration) { e.now = e.now.Add(d) }
func (e *replayExec) Rand() float64        { return e.rng.Float64() }

// report publishes the accumulated sim, trace, analyze, inject and session
// layer metrics.
func (l *simLayers) report(r *report) {
	snap := l.reg.Snapshot()
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }
	perEvent := func(x float64) float64 {
		if l.events == 0 {
			return 0
		}
		return x / float64(l.events)
	}
	r.set("sim.baseline_run_us", "us", stats.MedianFloat(l.baseline))
	r.set("sim.prep_run_us", "us", stats.MedianFloat(l.prep))
	r.set("sim.detect_run_us", "us", stats.MedianFloat(l.detect))
	r.set("sim.runs", "count", float64(len(l.baseline)+len(l.prep)+len(l.detect)))
	r.set("trace.events", "count", float64(l.events))
	r.set("trace.record_ns_per_event", "ns", perEvent(l.recordNS))
	r.set("trace.allocs_per_event", "count", perEvent(l.recordAllocs))
	r.set("analyze.ns_per_event", "ns", perEvent(l.analyzeNS))
	r.set("analyze.candidate_pairs", "count", ctr("analyze.candidate_pairs"))
	r.set("analyze.pairs_pruned", "count", ctr("analyze.pairs_pruned"))
	r.set("analyze.interference_edges", "count", ctr("analyze.interference_edges"))
	access := 0.0
	if l.accessCalls > 0 {
		access = l.accessNS / float64(l.accessCalls)
	}
	r.set("inject.access_ns", "ns", access)
	r.set("inject.accesses", "count", float64(l.accesses.Load()))
	delays := ctr("inject.delays_injected")
	r.set("inject.delays_injected", "count", delays)
	r.set("inject.delays_skipped_interference", "count", ctr("inject.delays_skipped_interference"))
	r.set("inject.decay_floor_hits", "count", ctr("inject.decay_floor_hits"))
	exposures := ctr("session.bugs_exposed")
	per1k := 0.0
	if delays > 0 {
		per1k = 1000 * exposures / delays
	}
	r.set("inject.exposures_per_1k_delays", "count", per1k)
	r.set("session.runs", "count", ctr("session.runs"))
	spanMS := func(name string) float64 {
		sp := snap.Spans[name]
		if sp.Count == 0 {
			return 0
		}
		return float64(sp.TotalNS) / float64(sp.Count) / 1e6
	}
	r.set("session.prepare_ms", "ms", spanMS("phase.prepare"))
	r.set("session.detect_ms", "ms", spanMS("phase.detect"))
	r.set("session.analyze_ms", "ms", spanMS("phase.analyze"))
}

// checkCounters compares the registry's analyze and inject counters with
// the totals the untraced measurement computed from plans and run reports
// alone: attaching the registry and the wrappers must not change them.
func (l *simLayers) checkCounters(r *report, want engineTotals) {
	snap := l.reg.Snapshot()
	got := engineTotals{int(snap.Counters["analyze.candidate_pairs"]), int(snap.Counters["inject.delays_injected"])}
	if got != want {
		r.breach("traced counters %+v differ from the untraced plans and run reports %+v", got, want)
	}
}

// heapAllocs reads the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeProbe measures the Go runtime's share of a traced pass: bytes
// allocated, GC cycles, and the peak live heap, sampled every few
// milliseconds by a goroutine the probe owns.
type runtimeProbe struct {
	start runtime.MemStats
	peak  atomic.Uint64
	stop  chan struct{}
	wg    sync.WaitGroup
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{})}
	runtime.ReadMemStats(&p.start)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and publishes the runtime metrics, with
// allocation per item of the workload's unit of work.
func (p *runtimeProbe) finish(r *report, items int) {
	close(p.stop)
	p.wg.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	perItem := 0.0
	if items > 0 {
		perItem = float64(end.TotalAlloc-p.start.TotalAlloc) / float64(items)
	}
	r.set("runtime.alloc_bytes_per_item", "B", perItem)
	r.set("runtime.gc_cycles", "count", float64(end.NumGC-p.start.NumGC))
	r.set("runtime.heap_peak_mb", "MB", float64(p.peak.Load())/(1<<20))
}

// tracedOverhead publishes the traced pass's throughput cost against the
// untraced measurement of the same run.
func tracedOverhead(r *report, untraced, traced float64) {
	pct := 0.0
	if traced > 0 {
		pct = 100 * (untraced/traced - 1)
	}
	r.set("obs.traced_overhead_pct", "%", pct)
}
