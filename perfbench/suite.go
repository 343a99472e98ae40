package main

import (
	"fmt"
	"time"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/stats"
)

// Budgets of the suite workload: Table 5's two instrumented runs for the
// bug-free tests (preparation, then one detection run), Table 4's search
// budget for the planted bugs.
const (
	cleanMaxRuns = 2
	bugMaxRuns   = 50
	bugAttempts  = 4 * stats.Repetitions // attempts per planted bug, each at its own seed
	bugMajority  = bugAttempts * 2 / 3   // the paper's 10-of-15 rule
)

// suiteSeed is the base seed of test i: every session of a run derives its
// schedule from the workload seed through this and nothing else.
func suiteSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*7_919 + 1
}

// suiteTotals are the deterministic sums of one pass over the bug-free
// tests: virtual end times of the baseline, preparation and first
// detection runs, and the delays that detection run injected.
type suiteTotals struct {
	base, prep, detect int64
	delays             int
	engine             engineTotals
}

// engineTotals are what the analyze and inject layers' own counters must
// add up to: candidate pairs planned and delays injected over every run.
// The traced pass checks its registry against them.
type engineTotals struct {
	pairs, delays int
}

func (e *engineTotals) add(wf *core.Waffle, out *core.Outcome) {
	if plan := wf.Plan(); plan != nil {
		e.pairs += len(plan.Pairs)
	}
	for _, run := range out.Runs {
		e.delays += run.Stats.Count
	}
}

// add folds one healthy bug-free session into the totals.
func (tot *suiteTotals) add(out *core.Outcome) {
	tot.base += int64(out.BaseTime)
	tot.prep += int64(out.Runs[0].End)
	tot.detect += int64(out.Runs[1].End)
	tot.delays += out.Runs[1].Stats.Count
}

// cleanFailure judges a bug-free test's session: any run error, bug
// report, delay-free fault or missing run fails it.
func cleanFailure(t *apps.Test, out *core.Outcome) string {
	switch {
	case len(out.RunErrs()) > 0:
		return fmt.Sprintf("%s: %v", t.Name, out.RunErrs()[0])
	case out.Bug != nil:
		return fmt.Sprintf("%s: bug reported on a bug-free test: %s", t.Name, out.Bug)
	case len(out.DelayFreeFaults) > 0 || len(out.Runs) != cleanMaxRuns:
		return fmt.Sprintf("%s: %d runs, delay-free faults in %v", t.Name, len(out.Runs), out.DelayFreeFaults)
	}
	return ""
}

// bugTotals are the deterministic results of the planted-bug searches:
// attempts, exposing attempts, and the runs charged to them, bugMaxRuns+1
// for an attempt that missed. Charging misses makes a lower exposure rate
// raise runs_to_expose_mean even while every bug still passes its gate.
type bugTotals struct {
	attempts, exposed, runs int
	engine                  engineTotals
}

// suiteSession drives one test through a fresh Waffle session, returning
// the outcome, its Expose wall time in ms, and each run's wall time in ms,
// and folding the session into engine.
func suiteSession(t *apps.Test, budget int, seed int64, layers *simLayers, engine *engineTotals) (*core.Outcome, float64, samples) {
	wf := core.NewWaffle(core.Options{Metrics: layers.registry()})
	tp := &timedProgram{Program: t.Prog}
	var tool core.Tool = wf
	finish := func() {}
	if layers != nil {
		tool, finish = layers.session(tp, wf)
	}
	s := &core.Session{Prog: tp, Tool: tool, MaxRuns: budget, BaseSeed: seed, Metrics: layers.registry()}
	t0 := time.Now()
	out := s.Expose()
	d := time.Since(t0)
	finish()
	engine.add(wf, out)
	return out, float64(d.Nanoseconds()) / 1e6, tp.runsMS()
}

// suitePass runs every bug-free test once, returning the pass's totals,
// each session's Expose wall time and each run's wall time in ms, and the
// pass's wall time.
func suitePass(tests []*apps.Test, seed int64, r *report, layers *simLayers) (suiteTotals, samples, samples, time.Duration) {
	var tot suiteTotals
	lat := make(samples, 0, len(tests))
	var runs samples
	start := time.Now()
	for i, t := range tests {
		out, d, rs := suiteSession(t, cleanMaxRuns, suiteSeed(seed, i), layers, &tot.engine)
		lat = append(lat, d)
		runs = append(runs, rs...)
		reason := cleanFailure(t, out)
		if reason == "" {
			tot.add(out)
		}
		r.op(reason)
	}
	return tot, lat, runs, time.Since(start)
}

// bugPass searches every planted bug bugAttempts times with Table 4's
// budget, returning the totals, each run's wall time in ms, and the
// pass's wall time. A bug is one operation: it passes when two thirds of
// its attempts expose it, the paper's 10-of-15 rule for a probabilistic
// search, because single attempts of NetMQ/Bug-11 can miss within
// bugMaxRuns runs.
func bugPass(tests []*apps.Test, seed int64, r *report, layers *simLayers) (bugTotals, samples, time.Duration) {
	var tot bugTotals
	var runs samples
	start := time.Now()
	for i, t := range tests {
		exposed := 0
		reason := ""
		for a := 0; a < bugAttempts; a++ {
			out, _, rs := suiteSession(t, bugMaxRuns, suiteSeed(seed, 1_000+i*bugAttempts+a), layers, &tot.engine)
			runs = append(runs, rs...)
			if errs := out.RunErrs(); len(errs) > 0 && reason == "" {
				reason = fmt.Sprintf("%s: %v", t.Name, errs[0])
			}
			tot.attempts++
			if out.Bug != nil {
				exposed++
				tot.runs += out.RunsToExpose()
			} else {
				tot.runs += bugMaxRuns + 1
			}
		}
		tot.exposed += exposed
		if exposed < bugMajority && reason == "" {
			reason = fmt.Sprintf("%s: exposed in %d of %d attempts within %d runs", t.Name, exposed, bugAttempts, bugMaxRuns)
		}
		r.op(reason)
	}
	return tot, runs, time.Since(start)
}

// runSuite is the suite workload: every test of the 11 built-in apps, one
// goroutine, each through a fresh Waffle session.
func runSuite(cfg config, r *report) {
	var reg []*apps.App
	r.set("setup_s", "s", timeSetup(func() func() {
		reg = apps.Registry()
		return nil
	}))
	var clean, bugs []*apps.Test
	for _, a := range reg {
		for _, t := range a.Tests {
			if t.Bug != nil {
				bugs = append(bugs, t)
			} else {
				clean = append(clean, t)
			}
		}
	}

	// Untraced measurement: whole passes until the time is spent and the
	// p99 has its tail. Every pass must reproduce the first exactly.
	var first suiteTotals
	var lat, runs samples
	var wall time.Duration
	passes := 0
	for passes == 0 || wall < cfg.seconds || !tailOK(len(lat), 99) {
		tot, l, rs, w := suitePass(clean, cfg.seed, r, nil)
		runs = append(runs, rs...)
		if passes == 0 {
			first = tot
		} else if tot != first {
			r.breach("suite pass %d totals %+v differ from pass 1 %+v at the same seed", passes+1, tot, first)
		}
		lat = append(lat, l...)
		wall += w
		passes++
	}
	bt, rs, bw := bugPass(bugs, cfg.seed, r, nil)
	runs = append(runs, rs...)

	tps := float64(len(lat)) / wall.Seconds()
	p50, p99 := lat.quantiles()
	r.set("tests_per_s", "1/s", tps)
	r.set("test_p50_ms", "ms", p50)
	r.set("test_p99_ms", "ms", p99)
	all := (wall + bw).Seconds()
	r.set("programs_per_s", "1/s", float64(len(lat)+len(bugs)*bugAttempts)/all)
	r.set("requests_per_s", "1/s", float64(len(runs))/all)
	p50, p99 = runs.quantiles()
	r.set("request_p50_ms", "ms", p50)
	r.set("request_p99_ms", "ms", p99)
	r.set("overhead_prep_pct", "%", overheadPct(first.prep, first.base))
	r.set("overhead_detect_pct", "%", overheadPct(first.detect, first.base))
	r.set("delays_injected", "count", float64(first.delays))
	r.set("runs_to_expose_mean", "runs", float64(bt.runs)/float64(max(1, bt.attempts)))

	if !cfg.trace {
		return
	}
	layers := newSimLayers()
	probe := startRuntimeProbe()
	tot, tl, _, tw := suitePass(clean, cfg.seed, r, layers)
	tbt, _, _ := bugPass(bugs, cfg.seed, r, layers)
	probe.finish(r, len(tl)+len(bugs)*bugAttempts)
	if tot != first || tbt != bt {
		r.breach("traced suite totals %+v/%+v differ from untraced %+v/%+v", tot, tbt, first, bt)
	}
	layers.report(r)
	want := engineTotals{first.engine.pairs + bt.engine.pairs, first.engine.delays + bt.engine.delays}
	layers.checkCounters(r, want)
	tracedOverhead(r, tps, float64(len(tl))/tw.Seconds())
}

// overheadPct is Table 5's instrumented-run overhead: summed instrumented
// virtual time over summed baseline time, minus one, in percent.
func overheadPct(instrumented, base int64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(instrumented)/float64(base) - 1)
}
