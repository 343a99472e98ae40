// Command waffle drives the Waffle detector (or the WaffleBasic baseline)
// against a test from the benchmark suite, mirroring the workflow of
// Figure 3: a preparation run, trace analysis, then detection runs until a
// MemOrder bug manifests or the run budget is exhausted.
//
// Usage:
//
//	waffle -list                         # enumerate apps and tests
//	waffle -test SSH.Net/Bug-1           # expose a known bug
//	waffle -test SSH.Net/Bug-1 -tool basic
//	waffle -test NpgSQL/Bug-12 -plan plan.json -trace prep.trace
//
// Live mode runs the detector against real goroutines on the wall clock
// (see package live); scheduling is physical, so sim-only flags such as
// -seed and -replay are rejected:
//
//	waffle -live-list                    # enumerate live demos
//	waffle -live disposer                # expose a planted use-after-free
//	waffle -live disposer -live-bench BENCH_live.json
package main

import (
	"flag"
	"fmt"
	"os"

	"waffle/internal/apps"
	"waffle/internal/control"
	"waffle/internal/core"
	"waffle/internal/obs"
	"waffle/internal/wafflebasic"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list applications and their tests")
		suite    = flag.String("suite", "", "run the detector over every test of one application")
		testName = flag.String("test", "", "test to run, e.g. SSH.Net/Bug-1")
		toolName = flag.String("tool", "waffle", "detector: waffle | basic | waffle-noprep")
		maxRuns  = flag.Int("max-runs", 50, "run budget (preparation included)")
		seed     = flag.Int64("seed", 1, "base seed; run i uses seed+i-1")
		replay   = flag.Bool("replay", false, "after exposing a bug, validate it with a minimal deterministic replay")
		jsonOut  = flag.String("report", "", "write the bug report as JSON to this path")
		planOut  = flag.String("plan", "", "write the analyzed plan (candidate set S, interference set I, delay lengths) as JSON")
		traceOut = flag.String("trace", "", "write the preparation-run trace (binary)")

		liveName   = flag.String("live", "", "run the live (wall-clock, real-goroutine) detector against a built-in demo; see -live-list")
		liveList   = flag.Bool("live-list", false, "list the live demos")
		liveBench  = flag.String("live-bench", "", "with -live: write per-phase wall-time JSON (BENCH_live.json) to this path")
		liveSample = flag.Float64("live-sample", 1.0, "with -live: fraction of detection runs admitted by sampling (0, 1]; sampled-out runs execute uninstrumented")

		metricsOut    = flag.String("metrics", "", "write the campaign metrics snapshot (JSON, waffle.metrics/v1) to this path; '-' for stdout")
		metricsAddr   = flag.String("metrics-addr", "", "serve the live metrics snapshot over HTTP at this address during the campaign (e.g. 127.0.0.1:8321)")
		metricsLinger = flag.Duration("metrics-linger", 0, "with -metrics-addr: keep the endpoint up this long after the campaign ends, so external scrapers can catch a short campaign")

		adaptive    = flag.Bool("adaptive", false, "attach the adaptive campaign controller: retune alpha/decay, cap budgets from campaign history, and scale quiet sessions to zero at run boundaries")
		adaptiveLog = flag.String("adaptive-log", "", "with -adaptive: append every retune decision as a JSONL event to this path; '-' for stderr")
	)
	flag.Parse()

	if *metricsLinger > 0 && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "waffle: -metrics-linger requires -metrics-addr")
		os.Exit(2)
	}
	if *adaptiveLog != "" && !*adaptive {
		fmt.Fprintln(os.Stderr, "waffle: -adaptive-log requires -adaptive")
		os.Exit(2)
	}
	mc := newMetricsConfig(*metricsOut, *metricsAddr, *metricsLinger)
	ctrl, ctrlDone := newController(*adaptive, *adaptiveLog)

	if *list {
		listTests()
		return
	}
	if *liveList {
		listDemos()
		return
	}
	if *liveName != "" {
		rejectFlags("live", simOnlyFlags)
		runLive(*liveName, *maxRuns, *liveSample, *jsonOut, *planOut, *traceOut, *liveBench, mc, ctrl)
		ctrlDone()
		return
	}
	if *liveBench != "" {
		fmt.Fprintln(os.Stderr, "waffle: -live-bench requires -live")
		os.Exit(2)
	}
	if didSet("live-sample") {
		fmt.Fprintln(os.Stderr, "waffle: -live-sample requires -live")
		os.Exit(2)
	}
	if *suite != "" {
		rejectFlags("suite", perTestFlags)
		runSuite(*suite, *toolName, *maxRuns, *seed, mc, ctrl)
		ctrlDone()
		return
	}
	if *testName == "" {
		flag.Usage()
		os.Exit(2)
	}

	test := findTest(*testName)
	if test == nil {
		fmt.Fprintf(os.Stderr, "waffle: unknown test %q (try -list)\n", *testName)
		os.Exit(1)
	}

	tool := newTool(*toolName, mc.reg)
	wtool, _ := tool.(*core.Waffle) // a no-prep Waffle has no plan or trace to label
	if wtool != nil {
		wtool.SetLabel(test.Name)
	}

	session := &core.Session{Prog: test.Prog, Tool: tool, MaxRuns: *maxRuns, BaseSeed: *seed, Metrics: mc.reg}
	tgt := ctrl.Target(test.Name + "/" + *toolName)
	if tgt != nil {
		session.Tuner = tgt
	}
	out := session.Expose()
	tgt.ObserveOutcome(out)

	fmt.Printf("program:  %s\n", out.Program)
	fmt.Printf("tool:     %s\n", out.Tool)
	fmt.Printf("baseline: %v (uninstrumented)\n", out.BaseTime)
	for _, r := range out.Runs {
		kind := "detection"
		if out.Tool == "waffle" && r.Run == 1 {
			kind = "preparation"
		}
		status := "clean"
		switch {
		case r.Err != nil:
			status = "ERROR"
		case r.Fault != nil:
			status = "FAULT"
		case r.TimedOut:
			status = "timeout"
		}
		fmt.Printf("run %2d (%s, seed %d): end=%v delays=%d (%v total, %d skipped) %s\n",
			r.Run, kind, r.Seed, r.End, r.Stats.Count, r.Stats.Total, r.Stats.Skipped, status)
	}
	if errs := out.RunErrs(); len(errs) > 0 {
		fmt.Printf("%d run(s) failed without a verdict:\n", len(errs))
		for _, e := range errs {
			fmt.Printf("  %v\n", e)
		}
	}

	if out.Bug == nil {
		fmt.Printf("no MemOrder bug manifested in %d runs\n", len(out.Runs))
	} else {
		b := out.Bug
		fmt.Printf("\nBUG EXPOSED: %s\n", b.Kind())
		fmt.Printf("  input:     %s (seed %d, run %d)\n", b.Program, b.Seed, b.Run)
		fmt.Printf("  fault:     %v\n", b.Fault.Err)
		if b.Fence != nil {
			fmt.Printf("  repair:    %v\n", b.Fence)
		}
		fmt.Printf("  at:        %v into the run\n", b.Fault.T)
		fmt.Println("  threads:")
		for _, s := range b.Fault.Stacks {
			fmt.Printf("    %s\n", s)
		}
		if len(b.Candidates) > 0 {
			fmt.Println("  candidate pairs involved:")
			for _, p := range b.Candidates {
				fmt.Printf("    {%s, %s} %s (gap %v, %d near misses)\n", p.Delay, p.Target, p.Kind, p.Gap, p.Count)
			}
		}
		fmt.Printf("  delays in exposing run: %d (%v total)\n", b.Delays.Count, b.Delays.Total)
		fmt.Printf("  end-to-end slowdown: %.1fx over the uninstrumented input\n", out.Slowdown())
		if *replay {
			rep := core.Replay(test.Prog, b, core.Options{})
			fmt.Printf("  replay: %v\n", rep)
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
				os.Exit(1)
			}
			if err := b.WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("  report written to %s\n", *jsonOut)
		}
	}

	if wtool != nil && *planOut != "" && wtool.Plan() != nil {
		if err := writePlan(wtool, *planOut); err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}
	if wtool != nil && *traceOut != "" && wtool.PrepTrace() != nil {
		if err := writeTrace(wtool, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("preparation trace written to %s\n", *traceOut)
	}
	ctrlDone()
	mc.finish()
	if out.Bug == nil {
		os.Exit(3)
	}
}

// newTool builds a fresh detector of the kind -tool names, metered to reg;
// an unknown name exits 1.
func newTool(name string, reg *obs.Registry) core.Tool {
	switch name {
	case "waffle":
		return core.NewWaffle(core.Options{Metrics: reg})
	case "waffle-noprep":
		return core.NewWaffle(core.Options{DisablePrepRun: true, Metrics: reg})
	case "basic":
		return wafflebasic.New(core.Options{Metrics: reg})
	}
	fmt.Fprintf(os.Stderr, "waffle: unknown tool %q\n", name)
	os.Exit(1)
	return nil
}

// newController builds the adaptive campaign controller behind -adaptive.
// The returned done function flushes the decision log and prints the
// campaign summary; both are no-ops when the flag is off.
func newController(enabled bool, logPath string) (*control.Controller, func()) {
	if !enabled {
		return nil, func() {}
	}
	cfg := control.Config{}
	var logFile *os.File
	switch logPath {
	case "":
	case "-":
		cfg.Log = os.Stderr
	default:
		f, err := os.Create(logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "waffle: -adaptive-log: %v\n", err)
			os.Exit(1)
		}
		cfg.Log = f
		logFile = f
	}
	ctrl := control.New(cfg)
	return ctrl, func() {
		stopped, saved := 0, 0
		for _, t := range ctrl.Targets() {
			if t.Stopped {
				stopped++
				saved += t.SavedRuns
			}
		}
		fmt.Printf("adaptive: %d retune decision(s), %d session(s) scaled to zero, %d run(s) saved\n",
			len(ctrl.Events()), stopped, saved)
		if logFile != nil {
			logFile.Close()
		}
	}
}

// runSuite exposes bugs across one application's whole test suite — the
// evaluation's usage mode: "we ran both tools using every multi-threaded
// test case in the test suites of each application" (§6.1).
func runSuite(appName, toolName string, maxRuns int, seed int64, mc *metricsConfig, ctrl *control.Controller) {
	app := apps.ByName(appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "waffle: unknown application %q (try -list)\n", appName)
		os.Exit(1)
	}
	fmt.Printf("%s: %d multi-threaded tests, tool %s, budget %d runs/test\n",
		app.Name, len(app.Tests), toolName, maxRuns)
	bugsFound := 0
	for i, test := range app.Tests {
		session := &core.Session{
			Prog: test.Prog, Tool: newTool(toolName, mc.reg),
			MaxRuns: maxRuns, BaseSeed: seed + int64(i)*101,
			Metrics: mc.reg,
		}
		// One controller across the suite: budget caps learned from early
		// tests' exposures bound the later tests' budgets.
		tgt := ctrl.Target(test.Name + "/" + toolName)
		if tgt != nil {
			session.Tuner = tgt
		}
		out := session.Expose()
		tgt.ObserveOutcome(out)
		if out.Bug != nil {
			bugsFound++
			fmt.Printf("  %-32s %v at %s (run %d, slowdown %.1fx)\n",
				test.Name, out.Bug.Kind(), out.Bug.FaultSite(), out.Bug.Run, out.Slowdown())
		}
	}
	fmt.Printf("%d test(s) exposed MemOrder bugs\n", bugsFound)
	mc.finish()
}

func listTests() {
	for _, a := range apps.Registry() {
		fmt.Printf("%s (%d multi-threaded tests)\n", a.Name, len(a.Tests))
		for _, test := range a.Tests {
			if test.Bug != nil {
				fmt.Printf("  %-30s %s issue %s (known=%v)\n", test.Name, test.Bug.ID, test.Bug.IssueID, test.Bug.Known)
			}
		}
	}
	fmt.Println("\n(generated tests are named <App>/test-NNN; bug inputs shown above)")
}

func findTest(name string) *apps.Test {
	for _, a := range apps.Registry() {
		for _, test := range a.Tests {
			if test.Name == name {
				return test
			}
		}
	}
	return nil
}

func writePlan(w *core.Waffle, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return w.Plan().WriteJSON(f)
}

func writeTrace(w *core.Waffle, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return w.PrepTrace().WriteBinary(f)
}
