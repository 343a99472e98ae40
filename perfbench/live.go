package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/live"
	"waffle/internal/obs"
	"waffle/internal/stats"
	"waffle/internal/workload"
)

// Monitor settings of the live workload: a quarter of requests admitted,
// injected delay capped at the baseline p99, and a run timeout short
// enough that a leaked request cannot outlive the watchdog.
const (
	liveSampleRate = 0.25
	liveSLO        = 1.0
	liveRunTimeout = 2 * time.Second
	livePlanLen    = 1 << 14
)

// livePaths are the workload's request paths: two with planted bugs, two
// clean. Indices below cleanFrom are the planted ones.
var livePaths = []string{"/checkout", "/profile", "/browse", "/search"}

const cleanFrom = 2

// Specs of the two clean handlers. Their live bodies serve /browse and
// /search; their simulator bodies are the twins the workload's Table 5/6
// figures are measured on (the wall clock has no deterministic
// counterpart).
var (
	browseSpec = workload.Spec{
		Prefix: "browse", Threads: 2, LocalObjs: 1, LocalOps: 2,
		SharedObjs: 2, SharedUses: 2, PreForkObjs: 1, Spacing: 100,
	}
	searchSpec = workload.Spec{
		Prefix: "search", Threads: 3, LocalObjs: 2, LocalOps: 2,
		SharedObjs: 3, SharedUses: 2, SyncedObjs: 1, Spacing: 100,
	}
)

// liveBodies returns the request bodies of livePaths: the handlers of
// examples/live-service (a main package, so copied here).
func liveBodies() []func(*live.Thread, *live.Heap) {
	return []func(*live.Thread, *live.Heap){checkoutBody, profileBody, browseSpec.LiveBody(), searchSpec.LiveBody()}
}

// checkoutBody plants a use-after-free: the worker's use of the session
// naturally beats the handler's dispose by ~4ms.
func checkoutBody(t *live.Thread, h *live.Heap) {
	sess := h.NewRef("payment-session")
	sess.Init(t, "checkout.OpenSession")
	w := t.Spawn("fulfillment", func(w *live.Thread) {
		w.Sleep(1 * time.Millisecond)
		sess.Use(w, "checkout.fulfillment.Charge")
	})
	t.Sleep(5 * time.Millisecond)
	sess.Dispose(t, "checkout.CloseSession")
	t.Join(w)
}

// profileBody plants a use-before-init: the loader initializes the cache
// ~1ms in, the renderer reads it at ~6ms.
func profileBody(t *live.Thread, h *live.Heap) {
	cache := h.NewRef("avatar-cache")
	w := t.Spawn("loader", func(w *live.Thread) {
		w.Sleep(1 * time.Millisecond)
		cache.Init(w, "profile.loader.Fill")
	})
	t.Sleep(6 * time.Millisecond)
	cache.Use(t, "profile.Render")
	t.Join(w)
	cache.Dispose(t, "profile.Evict")
}

// liveWeights is the request mix over livePaths: the 2:2:3:1 mix the
// live-service load-smoke test (examples/live-service) drives.
var liveWeights = []int{2, 2, 3, 1}

// livePlan is the seeded request sequence: path indices drawn by
// liveWeights, one weighted draw per request as internal/loadgen plans.
func livePlan(seed int64) []int {
	sum := 0
	for _, w := range liveWeights {
		sum += w
	}
	rng := rand.New(rand.NewSource(seed))
	plan := make([]int, livePlanLen)
	for i := range plan {
		draw := rng.Intn(sum)
		for plan[i] = 0; draw >= liveWeights[plan[i]]; plan[i]++ {
			draw -= liveWeights[plan[i]]
		}
	}
	return plan
}

// request is one completed Monitor.Do as a client saw it.
type request struct {
	path int
	dur  time.Duration
	rep  live.RequestReport
}

// liveRun is one measurement against one monitor.
type liveRun struct {
	reqs []request // in completion order
	wall time.Duration
}

// driveMonitor runs closed-loop clients against mon over plan until the
// time is spent and both the all-request and clean-path p99 have their
// tails. Each client sends its next request when the previous returns.
func driveMonitor(mon *live.Monitor, bodies []func(*live.Thread, *live.Heap), plan []int, seconds time.Duration) liveRun {
	var (
		mu    sync.Mutex
		run   liveRun
		clean int
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	enough := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return time.Since(start) >= seconds && tailOK(len(run.reqs), 99) && tailOK(clean, 99)
	}
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !enough() {
				p := plan[int(next.Add(1)-1)%len(plan)]
				t0 := time.Now()
				rep := mon.Do(livePaths[p], bodies[p])
				d := time.Since(t0)
				mu.Lock()
				run.reqs = append(run.reqs, request{p, d, rep})
				if p >= cleanFrom {
					clean++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	return run
}

// check counts every request as an operation and fails the clean-path
// faults and bugs, timeouts, and planted bugs never reported.
func (lr liveRun) check(r *report) {
	exposed := make([]bool, cleanFrom)
	for _, q := range lr.reqs {
		reason := ""
		switch {
		case q.dur >= liveRunTimeout:
			reason = fmt.Sprintf("%s request %d hit the %s run timeout", livePaths[q.path], q.rep.Seq, liveRunTimeout)
		case q.path >= cleanFrom && (q.rep.Fault != nil || q.rep.Bug != nil):
			reason = fmt.Sprintf("%s request %d faulted on a clean path (bug report: %v)", livePaths[q.path], q.rep.Seq, q.rep.Bug != nil)
		case q.path < cleanFrom && q.rep.Bug != nil:
			exposed[q.path] = true
		}
		r.op(reason)
	}
	for p, ok := range exposed {
		if !ok {
			r.breach("planted bug on %s never reported", livePaths[p])
		}
	}
}

// report publishes the wall-clock end-to-end metrics of one measurement
// and returns its request rate.
func (lr liveRun) report(r *report) float64 {
	var all, clean samples
	admitted := make([]int, cleanFrom) // per planted path, admitted requests up to its first bug
	exposed := make([]bool, cleanFrom)
	for _, q := range lr.reqs {
		ms := float64(q.dur.Nanoseconds()) / 1e6
		all = append(all, ms)
		if q.path >= cleanFrom {
			clean = append(clean, ms)
		} else if q.rep.Admitted && !exposed[q.path] {
			admitted[q.path]++
			exposed[q.path] = q.rep.Bug != nil
		}
	}
	rps := float64(len(all)) / lr.wall.Seconds()
	p50, p99 := all.quantiles()
	r.set("requests_per_s", "1/s", rps)
	r.set("programs_per_s", "1/s", rps) // each request runs its path's program once
	r.set("request_p50_ms", "ms", p50)
	r.set("request_p99_ms", "ms", p99)
	p50, p99 = clean.quantiles()
	r.set("tests_per_s", "1/s", float64(len(clean))/lr.wall.Seconds())
	r.set("test_p50_ms", "ms", p50)
	r.set("test_p99_ms", "ms", p99)
	runs := 0
	for _, n := range admitted {
		runs += n
	}
	r.set("runs_to_expose_mean", "runs", float64(runs)/float64(cleanFrom))
	return rps
}

// twinSessions is how many seeds each clean handler's twin is searched at.
const twinSessions = 64

// twinFigures measures Table 5's instrumented-run overheads and Table 6's
// delay count on the simulator twins of the clean handlers, through the
// same bug-free-test sessions as the suite workload.
func twinFigures(seed int64, r *report) suiteTotals {
	var tot suiteTotals
	for k, spec := range []workload.Spec{browseSpec, searchSpec} {
		t := &apps.Test{Name: "twin" + livePaths[cleanFrom+k], Prog: &core.SimProgram{Label: spec.Prefix, Jitter: 0.05, Body: spec.Body()}}
		for i := 0; i < twinSessions; i++ {
			out, _, _ := suiteSession(t, cleanMaxRuns, suiteSeed(seed, k*twinSessions+i), nil, &tot.engine)
			if reason := cleanFailure(t, out); reason != "" {
				r.breach("%s", reason)
				continue
			}
			tot.add(out)
		}
	}
	r.set("overhead_prep_pct", "%", overheadPct(tot.prep, tot.base))
	r.set("overhead_detect_pct", "%", overheadPct(tot.detect, tot.base))
	r.set("delays_injected", "count", float64(tot.delays))
	return tot
}

// runLive is the live workload: live.Monitor in-process under closed-loop
// clients, no HTTP.
func runLive(cfg config, r *report) {
	var (
		mon    *live.Monitor
		bodies []func(*live.Thread, *live.Heap)
	)
	setup := func(reg *obs.Registry) {
		mon = live.NewMonitor(cfg.seed, live.Options{
			SampleRate: liveSampleRate, SLO: liveSLO, RunTimeout: liveRunTimeout, Metrics: reg,
		})
		bodies = liveBodies()
	}
	plan := livePlan(cfg.seed) // the workload's input, not the system's set-up
	r.set("setup_s", "s", timeSetup(func() func() {
		setup(nil)
		return nil
	}))
	lr := driveMonitor(mon, bodies, plan, cfg.seconds)
	lr.check(r)
	rps := lr.report(r)
	twins := twinFigures(cfg.seed, r)
	if !cfg.trace {
		return
	}

	reg := obs.New()
	setup(reg)
	probe := startRuntimeProbe()
	tr := driveMonitor(mon, bodies, plan, cfg.seconds)
	probe.finish(r, len(tr.reqs))
	tr.check(r)
	tracedOverhead(r, rps, tr.report(&report{}))
	if again := twinFigures(cfg.seed, &report{}); again != twins {
		r.breach("twin figures %+v differ from the first measurement %+v at the same seed", again, twins)
	}

	var plain, inject samples
	var record []float64
	admitted, delays := 0, 0
	for _, q := range tr.reqs {
		us := float64(q.dur.Nanoseconds()) / 1e3
		switch {
		case q.rep.Recorded:
			record = append(record, us/1e3)
		case q.rep.Admitted:
			inject = append(inject, us)
		case q.rep.SampledOut:
			plain = append(plain, us)
		}
		if q.rep.Admitted {
			admitted++
			delays += q.rep.Delays
		}
	}
	p50, p99 := plain.quantiles()
	r.set("live.plain_us_p50", "us", p50)
	r.set("live.plain_us_p99", "us", p99)
	p50, p99 = inject.quantiles()
	r.set("live.inject_us_p50", "us", p50)
	r.set("live.inject_us_p99", "us", p99)
	r.set("live.record_ms", "ms", stats.Mean(record))
	snap := reg.Snapshot()
	r.set("live.requests_admitted", "count", float64(snap.Counters["live.requests_admitted"]))
	r.set("live.delays_per_admitted", "count", float64(delays)/float64(max(1, admitted)))
	r.set("live.truncated_delays", "count", float64(snap.Counters["live.truncated_delays"]))
	r.set("live.abandoned_events", "count", float64(snap.Counters["live.abandoned_events"]))
	r.set("live.budget_ns", "ns", snap.Gauges["live.budget_ns"])
	for _, name := range []string{"analyze.candidate_pairs", "analyze.pairs_pruned", "analyze.interference_edges",
		"inject.delays_injected", "inject.delays_skipped_interference", "inject.decay_floor_hits"} {
		r.set(name, "count", float64(snap.Counters[name]))
	}
	bugs, injected := float64(snap.Counters["live.bugs_exposed"]), float64(snap.Counters["inject.delays_injected"])
	r.set("inject.exposures_per_1k_delays", "count", 1000*bugs/max(1, injected))
}
