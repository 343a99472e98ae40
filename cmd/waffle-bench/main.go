// Command waffle-bench regenerates the paper's evaluation tables and
// figures from the synthetic benchmark suite.
//
// Usage:
//
//	waffle-bench -table 4            # one table (1..7)
//	waffle-bench -figure 2           # one figure (2 or 5)
//	waffle-bench -all                # everything, in paper order
//	waffle-bench -all -max-tests 20 -reps 5   # faster, subsampled
//	waffle-bench -gen 1000,100,mixed # differential oracle over a generated corpus
//
// The output is the measured reproduction; EXPERIMENTS.md places it side
// by side with the paper's numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"waffle/internal/apps"
	"waffle/internal/control"
	"waffle/internal/eval"
	"waffle/internal/obs"
	"waffle/internal/report"
	"waffle/internal/server"
)

func main() {
	var (
		table    = flag.Int("table", 0, "render one table (1..7)")
		figure   = flag.Int("figure", 0, "render one figure (2 or 5)")
		all      = flag.Bool("all", false, "render every table and figure")
		maxTests = flag.Int("max-tests", 0, "cap tests per app (0 = full suite)")
		reps     = flag.Int("reps", 15, "repetitions for probabilistic experiments")
		maxRuns  = flag.Int("max-runs", 50, "search bound for bug exposure")
		seed     = flag.Int64("seed", 1, "base seed")
		parallel = flag.Int("parallel", 0, "worker goroutines for independent sessions (0 = GOMAXPROCS; numbers unchanged)")
		appName  = flag.String("app", "", "restrict suite tables to one app")
		sweep    = flag.String("sweep", "", "sensitivity sweep: window | alpha")
		compare  = flag.Bool("compare", false, "empirical tool comparison across Table 1's design points")
		fullHB   = flag.Bool("fullhb", false, "partial (fork-only) vs full happens-before analysis trade-off")
		format   = flag.String("format", "ascii", "output format: ascii | md")
		gaps     = flag.Bool("gaps", false, "per-bug delay-free time gaps (§4.3's measurement)")
		detail   = flag.Bool("ablation-detail", false, "per-bug runs-to-expose under each Table 7 ablation")
		gen      = flag.String("gen", "", "differential oracle over a generated corpus: seed,count,size (size: small|medium|large|mixed)")
		genOut   = flag.String("gen-out", "BENCH_gen.json", "report file for -gen")
		genTSO   = flag.Bool("tso", false, "with -gen: store-buffer (TSO) corpus of stale-read bugs; gates on 100% waffle exposure with manifest-matching fence proposals")

		adaptive    = flag.Bool("adaptive", false, "with -gen: sweep the corpus twice (fixed, then under the adaptive campaign controller) and gate on exposure parity with strictly fewer runs")
		adaptiveOut = flag.String("adaptive-out", "BENCH_adaptive.json", "report file for -adaptive")
		adaptiveLog = flag.String("adaptive-log", "", "with -adaptive: append every retune decision as a JSONL event to this path; '-' for stderr")

		metricsOut      = flag.String("metrics-out", "", "write the campaign metrics snapshot (JSON, waffle.metrics/v1) to this path")
		validateMetrics = flag.String("validate-metrics", "", "validate a metrics JSON file (bare snapshot or a report with a \"metrics\" section) and exit")
	)
	flag.Parse()
	markdown = *format == "md"

	if *validateMetrics != "" {
		data, err := os.ReadFile(*validateMetrics)
		if err == nil {
			err = obs.ValidateSnapshotJSON(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "waffle-bench: -validate-metrics %s: %v\n", *validateMetrics, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s snapshot\n", *validateMetrics, obs.SchemaVersion)
		return
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
		defer writeMetrics(reg, *metricsOut)
	}

	if *adaptive && *gen == "" {
		fmt.Fprintln(os.Stderr, "waffle-bench: -adaptive requires -gen")
		os.Exit(2)
	}
	if *adaptiveLog != "" && !*adaptive {
		fmt.Fprintln(os.Stderr, "waffle-bench: -adaptive-log requires -adaptive")
		os.Exit(2)
	}

	if *gen != "" {
		corpus, err := parseGen(*gen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "waffle-bench: bad -gen %q: %v\n", *gen, err)
			os.Exit(2)
		}
		corpus.TSO = *genTSO
		opt := eval.DiffOptions{Corpus: corpus, MaxRuns: *maxRuns, Workers: *parallel, Metrics: reg}
		if *adaptive {
			err = runGenAdaptive(opt, *adaptiveOut, *adaptiveLog)
		} else {
			err = runGen(opt, *genOut)
		}
		if err != nil {
			if reg != nil {
				writeMetrics(reg, *metricsOut)
			}
			fmt.Fprintf(os.Stderr, "waffle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if !*all && *table == 0 && *figure == 0 && *sweep == "" && !*compare && !*fullHB && !*gaps && !*detail {
		flag.Usage()
		os.Exit(2)
	}

	suite := func() []eval.SuiteRow {
		var rows []eval.SuiteRow
		for _, a := range apps.Registry() {
			if *appName != "" && a.Name != *appName {
				continue
			}
			if a.Name == "LiteDB" {
				continue // excluded from Tables 2/5/6 (§6.4)
			}
			rows = append(rows, eval.EvalSuite(a, eval.SuiteOptions{Seed: *seed, MaxTests: *maxTests, Parallelism: *parallel, Metrics: reg}))
		}
		return rows
	}
	bugOpt := eval.BugOptions{Seed: *seed, Repetitions: *reps, MaxRuns: *maxRuns, Parallelism: *parallel}

	var suiteRows []eval.SuiteRow
	getSuite := func() []eval.SuiteRow {
		if suiteRows == nil {
			suiteRows = suite()
		}
		return suiteRows
	}

	want := func(t int) bool { return *all || *table == t }
	wantFig := func(f int) bool { return *all || *figure == f }

	if want(1) {
		printTable1()
	}
	if wantFig(2) {
		printFigure2(*seed, *reps)
	}
	if want(2) {
		printTable2(getSuite())
	}
	if want(3) {
		printTable3()
	}
	if want(4) {
		printTable4(bugOpt)
	}
	if want(5) {
		printTable5(getSuite())
	}
	if wantFig(5) {
		printFigure5(getSuite())
	}
	if want(6) {
		printTable6(getSuite())
	}
	if want(7) {
		printTable7(bugOpt)
	}
	if *sweep != "" || *all {
		printSweeps(*sweep, eval.SweepOptions{Seed: *seed, Repetitions: min(*reps, 5), MaxRuns: 20})
	}
	if *compare || *all {
		printComparison(eval.BugOptions{Seed: *seed, Repetitions: min(*reps, 7), MaxRuns: *maxRuns})
	}
	if *fullHB || *all {
		printFullHB(eval.FullHBOptions{Seed: *seed, MaxTests: 10})
	}
	if *gaps || *all {
		printGaps(*seed)
	}
	if *detail {
		printAblationDetail(eval.BugOptions{Seed: *seed, Repetitions: min(*reps, 7), MaxRuns: *maxRuns})
	}
}

// writeMetrics snapshots reg to path as indented JSON.
func writeMetrics(reg *obs.Registry, path string) {
	data, err := reg.Snapshot().MarshalIndentJSON()
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "waffle-bench: -metrics-out: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("metrics written to %s\n", path)
}

// parseGen parses the "-gen seed,count,size" triple. count and size are
// optional: "1000" means 25 mixed programs from seed 1000.
func parseGen(s string) (server.CorpusSpec, error) {
	var c server.CorpusSpec
	parts := strings.Split(s, ",")
	if len(parts) > 3 {
		return c, fmt.Errorf("want seed[,count[,size]]")
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return c, fmt.Errorf("seed: %w", err)
	}
	c = server.CorpusSpec{Seed: seed, Size: "mixed"}
	if len(parts) > 1 {
		n, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || n <= 0 {
			return c, fmt.Errorf("count: want a positive integer, got %q", parts[1])
		}
		c.Programs = n
	}
	if len(parts) > 2 {
		if size := strings.TrimSpace(parts[2]); size != "" {
			c.Size = size
		}
	}
	return c, c.Validate()
}

// runGen runs the differential oracle, prints the corpus summary, and
// writes the machine-readable report.
func runGen(opt eval.DiffOptions, out string) error {
	rep := eval.RunDifferential(opt)

	mix := fmt.Sprintf("%d planted bugs: %d UBI + %d UAF", rep.PlantedUBI+rep.PlantedUAF, rep.PlantedUBI, rep.PlantedUAF)
	if opt.Corpus.TSO {
		mix = fmt.Sprintf("%d planted stale reads, TSO", rep.PlantedStale)
	}
	t := report.NewTable(
		fmt.Sprintf("Differential oracle: %d generated programs (seed %d, %s)",
			rep.Programs, rep.Seed, mix),
		"Tool", "Exposed", "Rate", "Mean runs", "±95% CI", "p50", "p90", "p99", "Delays")
	for _, s := range rep.Tools {
		t.Row(s.Tool, fmt.Sprintf("%d/%d", s.Exposed, s.Sessions),
			fmt.Sprintf("%.0f%%", s.ExposureRate*100),
			fmt.Sprintf("%.2f", s.MeanRuns), fmt.Sprintf("%.2f", s.CI95Runs),
			fmt.Sprintf("%.0f", s.P50Runs), fmt.Sprintf("%.0f", s.P90Runs),
			fmt.Sprintf("%.0f", s.P99Runs), s.Delays)
	}
	render(t)
	fmt.Printf("reproducible: %v; violations: %d\n", rep.ReproOK, len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d oracle violations", len(rep.Violations))
	}
	if opt.Corpus.TSO {
		// A TSO corpus additionally gates on full exposure: the fence
		// proposals (already manifest-checked per exposure) are only a
		// complete repair map if every planted stale read was exposed.
		if wf, ok := rep.Summary("waffle"); !ok || wf.Missed > 0 {
			return fmt.Errorf("waffle missed %d of %d planted stale reads", wf.Missed, wf.Sessions)
		}
	}
	return nil
}

// runGenAdaptive runs the adaptive-vs-fixed comparison over a generated
// corpus, prints both arms, writes the machine-readable report, and fails
// unless the adaptive arm reached exposure parity with strictly fewer
// runs and no oracle violations.
func runGenAdaptive(opt eval.DiffOptions, out, logPath string) error {
	cfg := control.Config{}
	switch logPath {
	case "":
	case "-":
		cfg.Log = os.Stderr
	default:
		f, err := os.Create(logPath)
		if err != nil {
			return fmt.Errorf("-adaptive-log: %w", err)
		}
		defer f.Close()
		cfg.Log = f
	}
	rep := eval.RunAdaptiveComparison(opt, cfg)

	t := report.NewTable(
		fmt.Sprintf("Adaptive vs fixed: %d generated programs (seed %d)", rep.Programs, rep.Seed),
		"Arm", "Total runs", "Exposed", "Violations")
	t.Row("fixed", rep.Fixed.TotalRuns, rep.Fixed.Exposed, rep.Fixed.Violations)
	t.Row("adaptive", rep.Adaptive.TotalRuns, rep.Adaptive.Exposed, rep.Adaptive.Violations)
	render(t)
	stopped, saved := 0, 0
	for _, tg := range rep.Targets {
		if tg.Stopped {
			stopped++
			saved += tg.SavedRuns
		}
	}
	fmt.Printf("parity: %v; runs saved: %d (%.1f%%); retunes: %d; sessions scaled to zero: %d (%d budgeted runs unspent)\n",
		rep.Parity, rep.RunsSaved,
		100*float64(rep.RunsSaved)/float64(max(rep.Fixed.TotalRuns, 1)),
		len(rep.Retunes), stopped, saved)
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	switch {
	case len(rep.Violations) > 0:
		return fmt.Errorf("%d violation(s)", len(rep.Violations))
	case !rep.Parity:
		return fmt.Errorf("adaptive arm lost exposures")
	case rep.RunsSaved <= 0:
		return fmt.Errorf("adaptive arm saved no runs (fixed %d, adaptive %d)",
			rep.Fixed.TotalRuns, rep.Adaptive.TotalRuns)
	}
	return nil
}

func printAblationDetail(opt eval.BugOptions) {
	rows := eval.EvalAblationDetail(opt)
	t := report.NewTable("Table 7 detail: runs to expose per bug under each ablation (- = missed)",
		"Bug", "Full", "No parent-child", "No prep run", "No custom length", "No interference")
	for _, r := range rows {
		t.Row(r.ID, report.Runs(r.Full), report.Runs(r.NoParentChild), report.Runs(r.NoPrep),
			report.Runs(r.NoCustomLen), report.Runs(r.NoInterference))
	}
	render(t)
}

func printGaps(seed int64) {
	rows := eval.EvalBugGaps(seed)
	t := report.NewTable("§4.3: delay-free time gaps of the 18 bugs (paper: <1ms to ~100ms)",
		"Bug", "Application", "Known", "Gap (ms)")
	for _, r := range rows {
		t.Row(r.ID, r.App, report.YesNo(r.Known), fmt.Sprintf("%.1f", r.GapMS))
	}
	render(t)
}

func printFullHB(opt eval.FullHBOptions) {
	rows := eval.EvalFullHB(opt)
	t := report.NewTable("Extension: partial (fork-only) vs full happens-before analysis (§4.1's trade-off)",
		"App", "Pairs partial", "Pairs full", "Prep % partial", "Prep % full", "Delays partial", "Delays full", "Bugs partial", "Bugs full")
	for _, r := range rows {
		t.Row(r.App, fmt.Sprintf("%.1f", r.PartialPairs), fmt.Sprintf("%.1f", r.FullPairs),
			report.Pct(r.PartialPrepPct), report.Pct(r.FullPrepPct),
			r.PartialDelays, r.FullDelays,
			fmt.Sprintf("%d/%d", r.PartialBugs, r.AppBugs), fmt.Sprintf("%d/%d", r.FullBugs, r.AppBugs))
	}
	render(t)
}

func printComparison(opt eval.BugOptions) {
	rows := eval.EvalToolComparison(opt)
	t := report.NewTable("Extension: Table 1's design points, empirically (18 bugs)",
		"Tool", "Bugs exposed", "Median runs", "Mean runs", "Median slowdown")
	for _, r := range rows {
		t.Row(r.Tool, r.Exposed, fmt.Sprintf("%.0f", r.MedianRuns),
			fmt.Sprintf("%.1f", r.MeanRuns), fmt.Sprintf("%.1fx", r.MedianSlow))
	}
	render(t)
}

func printSweeps(which string, opt eval.SweepOptions) {
	render := func(title, unit string, points []eval.SweepPoint) {
		t := report.NewTable(title, unit, "Bugs exposed", "Avg runs", "Avg pairs", "Avg slowdown")
		for _, p := range points {
			t.Row(fmt.Sprintf("%g", p.Value), p.Exposed, fmt.Sprintf("%.1f", p.AvgRuns),
				fmt.Sprintf("%.0f", p.AvgPairs), fmt.Sprintf("%.1fx", p.AvgSlowdown))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	if which == "window" || which == "" {
		render("Sensitivity: near-miss window δ (paper fixes 100ms)", "δ (ms)",
			eval.EvalWindowSweep(nil, opt))
	}
	if which == "alpha" || which == "" {
		render("Sensitivity: delay multiplier α (paper fixes 1.15)", "α",
			eval.EvalAlphaSweep(nil, opt))
	}
}

// markdown selects the renderer for every table.
var markdown bool

// render draws a table in the selected format.
func render(t *report.Table) {
	if markdown {
		t.RenderMarkdown(os.Stdout)
		return
	}
	t.Render(os.Stdout)
	fmt.Println()
}

func printTable1() {
	t := report.NewTable("Table 1. Design decisions of recent active delay injection tools",
		append([]string{"Design decision"}, eval.Table1Tools...)...)
	for _, row := range eval.Table1() {
		cells := []any{row.Decision}
		for _, tool := range eval.Table1Tools {
			cells = append(cells, row.Values[tool])
		}
		t.Row(cells...)
	}
	render(t)
}

func printFigure2(seed int64, reps int) {
	points := eval.EvalFigure2(eval.Fig2Options{Seed: seed, Reps: reps * 3})
	t := report.NewTable("Figure 2. Trigger rate vs injected delay (TSV: ranged; MemOrder: threshold)",
		"Delay (ms)", "TSV trigger rate", "MemOrder trigger rate")
	for _, p := range points {
		t.Row(p.DelayMS, fmt.Sprintf("%.2f", p.TSVRate), fmt.Sprintf("%.2f", p.MemOrdRate))
	}
	render(t)
}

func printTable2(rows []eval.SuiteRow) {
	t := report.NewTable("Table 2. Average unique static instrumentation and injection sites per test input",
		"App", "Instr TSV", "Instr MO", "Inject TSV", "Inject MO")
	for _, r := range rows {
		if !r.InTable2 {
			continue
		}
		t.Row(r.App, r.TSVInstrSites, r.MOInstrSites, r.TSVInjSites, r.MOInjSites)
	}
	render(t)
}

func printTable3() {
	t := report.NewTable("Table 3. Benchmark applications",
		"Application", "LoC", "# MT tests", "# Stars")
	for _, a := range apps.Registry() {
		t.Row(a.Name, fmt.Sprintf("%.1fK", a.LoCK), a.MTTests, fmt.Sprintf("%.1fK", a.StarsK))
	}
	render(t)
}

func printTable4(opt eval.BugOptions) {
	rows := eval.EvalTable4(opt)
	t := report.NewTable("Table 4. Detection results (runs to expose and end-to-end slowdown)",
		"Bug", "Application", "Issue", "Known", "Base (ms)",
		"Runs Basic", "Runs Waffle", "Slowdown Basic", "Slowdown Waffle")
	for _, r := range rows {
		t.Row(r.ID, r.App, r.IssueID, report.YesNo(r.Known),
			fmt.Sprintf("%.0f", r.BaseMS),
			report.Runs(r.BasicRuns), report.Runs(r.WaffleRuns),
			report.Slow(r.BasicSlowdown), report.Slow(r.WaffleSlowdown))
	}
	t.Render(os.Stdout)
	exposedB, exposedW := 0, 0
	for _, r := range rows {
		if r.BasicRuns > 0 {
			exposedB++
		}
		if r.WaffleRuns > 0 {
			exposedW++
		}
	}
	fmt.Printf("Waffle exposed %d/18 bugs; WaffleBasic exposed %d/18.\n\n", exposedW, exposedB)
}

func printTable5(rows []eval.SuiteRow) {
	t := report.NewTable("Table 5. Average overhead (%) on all test inputs",
		"App", "Base (ms)", "Basic R#1", "Basic R#2", "Waffle R#1", "Waffle R#2")
	for _, r := range rows {
		b1, b2 := report.Pct(r.BasicR1Pct), report.Pct(r.BasicR2Pct)
		if r.BasicTimedOut {
			b1, b2 = "TimeOut", "TimeOut"
		}
		t.Row(r.App, fmt.Sprintf("%.0f", r.BaseMS), b1, b2,
			report.Pct(r.WaffleR1Pct), report.Pct(r.WaffleR2Pct))
	}
	render(t)
}

func printFigure5(rows []eval.SuiteRow) {
	t := report.NewTable("Figure 5 / §3.3. Average delay-overlap ratio per app (1 − projection/total)",
		"App", "TSVD overlap", "WaffleBasic overlap")
	for _, r := range rows {
		t.Row(r.App, fmt.Sprintf("%.1f%%", r.TSVDOverlap*100), fmt.Sprintf("%.1f%%", r.BasicOverlap*100))
	}
	render(t)
}

func printTable6(rows []eval.SuiteRow) {
	t := report.NewTable("Table 6. Cumulative delays injected (one detection run per input)",
		"App", "Basic #", "Basic dur (ms)", "Waffle #", "Waffle dur (ms)")
	for _, r := range rows {
		b1, b2 := fmt.Sprintf("%d", r.BasicDelays), fmt.Sprintf("%.0f", r.BasicDelayDurMS)
		if r.BasicTimedOut {
			b1, b2 = "TimeOut", "TimeOut"
		}
		t.Row(r.App, b1, b2, r.WaffleDelays, fmt.Sprintf("%.0f", r.WaffleDelayDurMS))
	}
	render(t)
}

func printTable7(opt eval.BugOptions) {
	rows := eval.EvalTable7(opt)
	t := report.NewTable("Table 7. Alternative designs: bugs missed and slowdown over full Waffle",
		"Design", "# bugs missed", "Slowdown over Waffle")
	for _, r := range rows {
		t.Row(r.Name, r.BugsMissed, fmt.Sprintf("%.2fx", r.Slowdown))
	}
	render(t)
}
