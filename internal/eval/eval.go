// Package eval computes the paper's evaluation artifacts — every table and
// figure of §6 plus the §3.3 measurements — from the synthetic benchmark
// suite. cmd/waffle-bench and the repository's bench harness are thin
// frontends over this package; EXPERIMENTS.md records its output against
// the paper's numbers.
package eval

import (
	"context"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/obs"
	"waffle/internal/sched"
	"waffle/internal/sim"
	"waffle/internal/stats"
	"waffle/internal/trace"
	"waffle/internal/tsvd"
	"waffle/internal/wafflebasic"
)

// SuiteRow aggregates one application's full-test-suite measurements: the
// per-app rows of Tables 2, 5, and 6 and the §3.3 overlap statistics, all
// computed in a single pass over the app's tests.
type SuiteRow struct {
	App      string
	Tests    int
	InTable2 bool

	// Table 2: average unique static sites per test input.
	TSVInstrSites float64
	TSVInjSites   float64
	MOInstrSites  float64
	MOInjSites    float64

	// Table 5: average base time and overhead percentages.
	BaseMS        float64
	BasicR1Pct    float64 // WaffleBasic run #1 overhead %
	BasicR2Pct    float64 // WaffleBasic run #2 overhead %
	WaffleR1Pct   float64 // Waffle preparation run overhead %
	WaffleR2Pct   float64 // Waffle first detection run overhead %
	BasicTimeouts int     // runs that hit the test timeout under WaffleBasic
	BasicTimedOut bool    // majority of tests timed out (Table 5 "TimeOut")

	// Table 6: cumulative delay count and duration over one detection run
	// per input (WaffleBasic run #2 / Waffle run #2).
	BasicDelays      int
	BasicDelayDurMS  float64
	WaffleDelays     int
	WaffleDelayDurMS float64

	// §3.3: average delay-overlap ratio across test inputs, for the
	// MemOrder tool (WaffleBasic) and for TSVD.
	BasicOverlap float64
	TSVDOverlap  float64
}

// SuiteOptions bounds a suite evaluation.
type SuiteOptions struct {
	Seed     int64
	MaxTests int // 0 = all tests
	// Parallelism runs that many tests concurrently (each test's worlds
	// are fully independent). 0 = GOMAXPROCS.
	Parallelism int
	// Metrics receives engine and pool counters from every tool the suite
	// drives. Nil disables instrumentation. Measurements are unchanged
	// either way (instruments only observe).
	Metrics *obs.Registry
}

// testResult carries one test's measurements out of the worker pool.
type testResult struct {
	base                          sim.Duration
	tsvInstr, tsvInj              float64
	moInstr, moInj                float64
	basicR1, basicR2              float64
	basicR1OK, basicR2OK          bool
	basicTimeouts                 int
	basicDelays, waffleDelays     int
	basicDelayDur, waffleDelayDur float64
	wr1, wr2                      float64
	basicOverlap, tsvdOverlap     float64
	basicOverlapOK, tsvdOverlapOK bool
}

// EvalSuite measures one application's whole test suite. Tests are
// evaluated concurrently: every run builds its own world and heap, so the
// only shared state is the result slice.
func EvalSuite(app *apps.App, opt SuiteOptions) SuiteRow {
	row := SuiteRow{App: app.Name, InTable2: app.InTable2}
	tests := app.Tests
	if opt.MaxTests > 0 && len(tests) > opt.MaxTests {
		tests = tests[:opt.MaxTests]
	}
	row.Tests = len(tests)

	// Fan the per-test measurements over the shared run orchestrator: each
	// test's worlds are fully independent, and the ordered commit keeps the
	// result slice (and thus every float accumulation below) in the same
	// order as a sequential loop.
	results := make([]testResult, len(tests))
	sched.Run(sched.Pool{Workers: opt.Parallelism, Metrics: opt.Metrics},
		0, len(tests)-1,
		func(_ context.Context, i int) (testResult, error) {
			return evalOneTest(tests[i], opt.Seed+int64(i)*101, opt.Metrics), nil
		},
		func(r sched.Result[testResult]) bool {
			results[r.Index] = r.Value
			return true
		})

	var (
		sumTSVInstr, sumTSVInj  float64
		sumMOInstr, sumMOInj    float64
		sumBase                 sim.Duration
		sumBasicR1, sumBasicR2  float64
		nBasicR1, nBasicR2      int
		sumWR1, sumWR2          float64
		basicOverlaps, tsvdOvls []float64
	)
	for _, r := range results {
		if r.base <= 0 {
			continue
		}
		sumBase += r.base
		sumTSVInstr += r.tsvInstr
		sumTSVInj += r.tsvInj
		sumMOInstr += r.moInstr
		sumMOInj += r.moInj
		if r.basicR1OK {
			sumBasicR1 += r.basicR1
			nBasicR1++
		}
		if r.basicR2OK {
			sumBasicR2 += r.basicR2
			nBasicR2++
		}
		row.BasicTimeouts += r.basicTimeouts
		row.BasicDelays += r.basicDelays
		row.BasicDelayDurMS += r.basicDelayDur
		row.WaffleDelays += r.waffleDelays
		row.WaffleDelayDurMS += r.waffleDelayDur
		sumWR1 += r.wr1
		sumWR2 += r.wr2
		if r.basicOverlapOK {
			basicOverlaps = append(basicOverlaps, r.basicOverlap)
		}
		if r.tsvdOverlapOK {
			tsvdOvls = append(tsvdOvls, r.tsvdOverlap)
		}
	}

	n := float64(len(tests))
	if n == 0 {
		return row
	}
	row.TSVInstrSites = sumTSVInstr / n
	row.TSVInjSites = sumTSVInj / n
	row.MOInstrSites = sumMOInstr / n
	row.MOInjSites = sumMOInj / n
	row.BaseMS = sumBase.Milliseconds() / n
	if nBasicR1 > 0 {
		row.BasicR1Pct = sumBasicR1 / float64(nBasicR1)
	}
	if nBasicR2 > 0 {
		row.BasicR2Pct = sumBasicR2 / float64(nBasicR2)
	}
	row.BasicTimedOut = row.BasicTimeouts*2 > len(tests)
	row.WaffleR1Pct = sumWR1 / n
	row.WaffleR2Pct = sumWR2 / n
	row.BasicOverlap = stats.Mean(basicOverlaps)
	row.TSVDOverlap = stats.Mean(tsvdOvls)
	return row
}

// evalOneTest performs every per-test measurement: base runs, one TSVD
// run, two WaffleBasic runs, and Waffle's preparation + first detection.
func evalOneTest(test *apps.Test, seed int64, metrics *obs.Registry) testResult {
	var r testResult
	base := test.Prog.Execute(seed, nil)
	r.base = sim.Duration(base.End)
	if r.base <= 0 {
		return r
	}
	// Overheads for second runs compare against a base run under the same
	// seed, so jitter draws cancel instead of polluting the percentage.
	base2 := sim.Duration(test.Prog.Execute(seed+1, nil).End)
	if base2 <= 0 {
		base2 = r.base
	}

	// TSVD: one identification+injection run over API sites.
	tv := tsvd.New(tsvd.Options{})
	tv.BeginRun()
	test.Prog.Execute(seed, tv)
	r.tsvInstr = float64(tv.InstrumentationSiteCount())
	r.tsvInj = float64(tv.InjectionSiteCount())
	if ivs := tv.Stats().Intervals; len(ivs) > 0 {
		r.tsvdOverlap = stats.OverlapRatio(ivs)
		r.tsvdOverlapOK = true
	}

	// WaffleBasic: identification run then detection run.
	wb := wafflebasic.New(core.Options{Metrics: metrics})
	b1 := runTool(test.Prog, wb, 1, nil, seed)
	if b1.TimedOut {
		r.basicTimeouts++
	} else {
		r.basicR1 = pct(b1.End, r.base)
		r.basicR1OK = true
	}
	b2 := runTool(test.Prog, wb, 2, &b1, seed+1)
	if b2.TimedOut {
		r.basicTimeouts++
	} else {
		r.basicR2 = pct(b2.End, base2)
		r.basicR2OK = true
	}
	r.basicDelays = b2.Stats.Count
	r.basicDelayDur = b2.Stats.Total.Milliseconds()
	if ivs := b2.Stats.Intervals; len(ivs) > 0 {
		r.basicOverlap = stats.OverlapRatio(ivs)
		r.basicOverlapOK = true
	}

	// Waffle: preparation run then first detection run.
	wf := core.NewWaffle(core.Options{Metrics: metrics})
	wf.SetLabel(test.Name)
	p1 := runTool(test.Prog, wf, 1, nil, seed)
	r.wr1 = pct(p1.End, r.base)
	p2 := runTool(test.Prog, wf, 2, &p1, seed+1)
	r.wr2 = pct(p2.End, base2)
	r.waffleDelays = p2.Stats.Count
	r.waffleDelayDur = p2.Stats.Total.Milliseconds()
	if tr := wf.PrepTrace(); tr != nil {
		// MO instrumentation sites come from the preparation trace; MO
		// injection sites are the delay sites of the unpruned
		// (WaffleBasic-style) candidate set over the same delay-free
		// trace — same-run injection hides candidates behind its own
		// delays (§4.2), so the unperturbed count is the meaningful
		// density measure.
		r.moInstr = float64(len(moSitesOf(wf)))
		unpruned := core.Analyze(tr, core.Options{DisableParentChild: true})
		r.moInj = float64(len(unpruned.InjectionSites()))
	}
	return r
}

// moSitesOf extracts the distinct MemOrder instrumentation sites from the
// Waffle tool's recorded preparation trace.
func moSitesOf(wf *core.Waffle) map[trace.SiteID]bool {
	sites := make(map[trace.SiteID]bool)
	tr := wf.PrepTrace()
	if tr == nil {
		return sites
	}
	for _, e := range tr.Events {
		if e.Kind.IsMemOrder() {
			sites[e.Site] = true
		}
	}
	return sites
}

// runTool performs one run of prog under tool (which may keep cross-run
// state), returning the run report.
func runTool(prog core.Program, tool core.Tool, run int, prev *core.RunReport, seed int64) core.RunReport {
	hook := tool.HookForRun(run, prev)
	res := prog.Execute(seed, hook)
	return core.RunReport{
		Run: run, Seed: seed, End: res.End,
		TimedOut: res.TimedOut, Fault: res.Fault, Stats: tool.RunStats(),
	}
}

// pct converts an instrumented end time into an overhead percentage.
func pct(end sim.Time, base sim.Duration) float64 {
	return (float64(end)/float64(base) - 1) * 100
}
