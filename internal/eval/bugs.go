package eval

import (
	"context"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/sched"
	"waffle/internal/stats"
	"waffle/internal/wafflebasic"
)

// BugRow is one Table 4 row: per-bug detection results for both tools.
type BugRow struct {
	ID      string
	App     string
	IssueID string
	Known   bool

	BaseMS float64 // measured uninstrumented execution time of the input

	BasicRuns     int     // runs to expose (0 = missed in MaxRuns)
	BasicSlowdown float64 // end-to-end slowdown when exposed
	BasicExposed  int     // attempts (of Repetitions) that exposed it

	WaffleRuns     int
	WaffleSlowdown float64
	WaffleExposed  int

	Paper *apps.BugSpec // the paper's numbers for comparison
}

// BugOptions bounds a Table 4 evaluation.
type BugOptions struct {
	Seed        int64
	Repetitions int // 0 = stats.Repetitions (the paper's 15)
	MaxRuns     int // 0 = 50, the paper's search bound
	Majority    int // majority threshold, 0 = 10 (the paper's 10-of-15)
	MaxTests    int // cap per-app tests for Table 7's suite slowdown (0 = all)
	// Parallelism fans independent bug evaluations over that many workers
	// (results stay in Table 4 order; every reported number is unchanged —
	// detection runs are deterministic per seed). 0 = GOMAXPROCS.
	Parallelism int
}

func (o BugOptions) withDefaults() BugOptions {
	if o.Repetitions <= 0 {
		o.Repetitions = stats.Repetitions
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = core.DefaultMaxRuns
	}
	if o.Majority <= 0 {
		o.Majority = 10
	}
	return o
}

// EvalBug measures one planted bug with both tools, repeating each session
// per the paper's methodology (§6.1–6.2: 15 attempts, majority or median
// reporting, 50-run search bound).
func EvalBug(test *apps.Test, opt BugOptions) BugRow {
	opt = opt.withDefaults()
	row := BugRow{
		ID: test.Bug.ID, App: test.Bug.AppName, IssueID: test.Bug.IssueID,
		Known: test.Bug.Known, Paper: test.Bug,
	}
	base := test.Prog.Execute(opt.Seed, nil)
	row.BaseMS = float64(base.End) / 1000.0

	basic := stats.RepeatExpose(opt.Repetitions, opt.MaxRuns, opt.Seed,
		func() core.Program { return test.Prog },
		func() core.Tool { return wafflebasic.New(core.Options{}) })
	bsum := stats.Summarize(basic, opt.Majority)
	row.BasicExposed = bsum.Exposed
	// Per the paper, a bug is "missed" when the tool cannot expose it
	// within the run budget; sporadic sub-majority exposures on a
	// probabilistic tool still count as the median.
	if bsum.Exposed*2 > opt.Repetitions {
		row.BasicRuns = bsum.RunsReported
		row.BasicSlowdown = bsum.MedianSlowdown
	}

	waffle := stats.RepeatExpose(opt.Repetitions, opt.MaxRuns, opt.Seed,
		func() core.Program { return test.Prog },
		func() core.Tool { return core.NewWaffle(core.Options{}) })
	wsum := stats.Summarize(waffle, opt.Majority)
	row.WaffleExposed = wsum.Exposed
	if wsum.Exposed*2 > opt.Repetitions {
		row.WaffleRuns = wsum.RunsReported
		row.WaffleSlowdown = wsum.MedianSlowdown
	}
	return row
}

// EvalTable4 measures all 18 planted bugs, fanning the per-bug sessions
// over BugOptions.Parallelism workers. Rows come back in Table 4 order
// with numbers identical to a sequential evaluation.
func EvalTable4(opt BugOptions) []BugRow {
	bugs := apps.AllBugs()
	rows := make([]BugRow, len(bugs))
	sched.Run(sched.Pool{Workers: opt.Parallelism},
		0, len(bugs)-1,
		func(_ context.Context, i int) (BugRow, error) {
			return EvalBug(bugs[i], opt), nil
		},
		func(r sched.Result[BugRow]) bool {
			rows[r.Index] = r.Value
			return true
		})
	return rows
}

// AblationRow is one Table 7 row: an alternative design's missed bugs and
// relative slowdown versus full Waffle.
type AblationRow struct {
	Name       string
	BugsMissed int
	Slowdown   float64 // mean detection-time ratio over full Waffle
}

// EvalTable7 measures the four single-design-point ablations. Bugs missed
// is counted over the 18 planted bugs (majority-of-attempts, as in Table
// 4). Slowdown follows §6.4's methodology: the impact on detection-run
// performance averaged across all test inputs for all applications — each
// ablation's first detection run time over full Waffle's, mean across the
// suite.
func EvalTable7(opt BugOptions) []AblationRow {
	opt = opt.withDefaults()
	ablations := []struct {
		name string
		opts core.Options
	}{
		{"no parent-child analysis (§4.1)", core.Options{DisableParentChild: true}},
		{"no preparation run (§4.2)", core.Options{DisablePrepRun: true}},
		{"no custom delay length (§4.3)", core.Options{DisableCustomLengths: true}},
		{"no interference control (§4.4)", core.Options{DisableInterferenceControl: true}},
	}

	bugs := apps.AllBugs()
	missed := func(opts core.Options) int {
		n := 0
		for _, test := range bugs {
			exposed := 0
			for rep := 0; rep < opt.Repetitions; rep++ {
				s := &core.Session{
					Prog:     test.Prog,
					Tool:     core.NewWaffle(opts),
					MaxRuns:  opt.MaxRuns,
					BaseSeed: opt.Seed + int64(rep)*10_007,
				}
				if s.Expose().Bug != nil {
					exposed++
				}
			}
			if exposed*2 <= opt.Repetitions {
				n++
			}
		}
		return n
	}

	// Suite-wide detection-run time under a given configuration.
	detectTime := func(opts core.Options) float64 {
		var total float64
		for _, a := range apps.Registry() {
			tests := a.Tests
			if opt.MaxTests > 0 && len(tests) > opt.MaxTests {
				tests = tests[:opt.MaxTests]
			}
			for i, test := range tests {
				seed := opt.Seed + int64(i)*101
				wf := core.NewWaffle(opts)
				r1 := runTool(test.Prog, wf, 1, nil, seed)
				r2 := runTool(test.Prog, wf, 2, &r1, seed+1)
				total += float64(r2.End)
			}
		}
		return total
	}

	fullTime := detectTime(core.Options{})
	var rows []AblationRow
	for _, ab := range ablations {
		row := AblationRow{Name: ab.name, BugsMissed: missed(ab.opts)}
		if fullTime > 0 {
			row.Slowdown = detectTime(ab.opts) / fullTime
		}
		rows = append(rows, row)
	}
	return rows
}

// GapRow records one planted bug's delay-free time gap — reproducing
// §4.3's measurement: "for the 12 known bugs in our evaluation,
// measurements reveal that these time gaps range from less than 1 to
// around 100 milliseconds", the observation that motivates variable-length
// delays.
type GapRow struct {
	ID    string
	App   string
	Known bool
	GapMS float64 // the exposing pair's recorded gap in the preparation run
}

// EvalBugGaps runs one preparation run per bug input and reports the gap
// of the pair that detection later realizes (the pair involving the
// eventually-faulting site).
func EvalBugGaps(seed int64) []GapRow {
	var rows []GapRow
	for _, test := range apps.AllBugs() {
		row := GapRow{ID: test.Bug.ID, App: test.Bug.AppName, Known: test.Bug.Known}
		s := &core.Session{Prog: test.Prog, Tool: core.NewWaffle(core.Options{}), MaxRuns: 50, BaseSeed: seed}
		out := s.Expose()
		if out.Bug != nil {
			// The culprit pair's gap, as the minimal replay plan sees it.
			plan := core.MinimalPlan(out.Bug, core.Options{})
			var maxGap float64
			for _, p := range plan.Pairs {
				if ms := float64(p.Gap) / 1000.0; ms > maxGap {
					maxGap = ms
				}
			}
			row.GapMS = maxGap
		}
		rows = append(rows, row)
	}
	return rows
}

// AblationDetailRow shows, per bug, the runs-to-expose under full Waffle
// and under each Table 7 ablation (0 = missed within the budget) — the
// per-bug decomposition behind Table 7's aggregate.
type AblationDetailRow struct {
	ID             string
	Full           int
	NoParentChild  int
	NoPrep         int
	NoCustomLen    int
	NoInterference int
}

// EvalAblationDetail measures every bug under every ablation once per
// seed (median across Repetitions).
func EvalAblationDetail(opt BugOptions) []AblationDetailRow {
	opt = opt.withDefaults()
	variants := []core.Options{
		{},
		{DisableParentChild: true},
		{DisablePrepRun: true},
		{DisableCustomLengths: true},
		{DisableInterferenceControl: true},
	}
	var rows []AblationDetailRow
	for _, test := range apps.AllBugs() {
		row := AblationDetailRow{ID: test.Bug.ID}
		cells := [5]*int{&row.Full, &row.NoParentChild, &row.NoPrep, &row.NoCustomLen, &row.NoInterference}
		for vi, opts := range variants {
			var runs []float64
			exposed := 0
			for rep := 0; rep < opt.Repetitions; rep++ {
				s := &core.Session{
					Prog:     test.Prog,
					Tool:     core.NewWaffle(opts),
					MaxRuns:  opt.MaxRuns,
					BaseSeed: opt.Seed + int64(rep)*10_007,
				}
				if out := s.Expose(); out.Bug != nil {
					exposed++
					runs = append(runs, float64(out.Bug.Run))
				}
			}
			if exposed*2 > opt.Repetitions {
				*cells[vi] = int(stats.MedianFloat(runs))
			}
		}
		rows = append(rows, row)
	}
	return rows
}
