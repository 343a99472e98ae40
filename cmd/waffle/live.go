package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"waffle/internal/control"
	"waffle/internal/live"
	"waffle/internal/report"
)

// simOnlyFlags are rejected in -live mode: each depends on the
// deterministic virtual-time simulator and would otherwise be silently
// meaningless on the wall clock.
var simOnlyFlags = map[string]string{
	"seed":     "wall-clock scheduling cannot be swept or replayed by seed; live injector seeds derive from the run number",
	"parallel": "speculative parallel re-execution requires deterministic virtual-time runs",
	"replay":   "deterministic replay requires the virtual-time simulator",
	"tool":     "live mode always runs the full waffle pipeline (baselines are simulator-only)",
	"suite":    "the benchmark suite runs in the simulator; use a live demo instead",
	"test":     "benchmark tests run in the simulator; pass a live demo name to -live",
}

// rejectSimOnlyFlags exits with a clear diagnostic when any sim-only flag
// was explicitly set alongside -live (flag.Visit only reports set flags).
func rejectSimOnlyFlags() {
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if why, ok := simOnlyFlags[f.Name]; ok {
			bad = append(bad, fmt.Sprintf("  -%s: %s", f.Name, why))
		}
	})
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "waffle: flag(s) not valid with -live:\n%s\n", strings.Join(bad, "\n"))
		os.Exit(2)
	}
}

// didSet reports whether a flag was explicitly set on the command line.
func didSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func listDemos() {
	fmt.Println("live demos (real goroutines, wall-clock time):")
	for _, d := range live.Demos() {
		fmt.Printf("  %-10s %v: %s\n", d.Name, d.Kind, d.About)
	}
}

// liveBench is the BENCH_live.json payload: per-phase wall time for one
// live detection session.
type liveBench struct {
	Demo    string      `json:"demo"`
	Exposed bool        `json:"exposed"`
	Runs    int         `json:"runs"`
	Phases  live.Phases `json:"phases"`
}

// runLive drives the live detector against a built-in demo.
func runLive(name string, maxRuns int, sample float64, reportPath, planPath, tracePath, benchPath string, mc *metricsConfig, ctrl *control.Controller) {
	demo, ok := live.FindDemo(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "waffle: unknown live demo %q (try -live-list)\n", name)
		os.Exit(1)
	}
	if sample <= 0 || sample > 1 {
		fmt.Fprintf(os.Stderr, "waffle: -live-sample %g out of range (0, 1]\n", sample)
		os.Exit(2)
	}

	opts := live.Options{SampleRate: sample, Metrics: mc.reg}
	tgt := ctrl.Target(name + "/waffle-live")
	if tgt != nil {
		opts.Tuner = tgt
	}
	d := live.NewDetector(opts)
	out := d.Expose(demo.Scenario, maxRuns, 1)
	tgt.ObserveOutcome(out)

	fmt.Printf("program:  %s (live, wall clock)\n", out.Program)
	fmt.Printf("tool:     %s\n", out.Tool)
	if out.BaseErr != nil {
		fmt.Printf("baseline: unavailable (%v)\n", out.BaseErr)
	} else {
		fmt.Printf("baseline: %v (uninstrumented)\n", time.Duration(out.BaseTime))
	}
	for _, r := range out.Runs {
		kind := "detection"
		if r.Run == 1 {
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
		case r.SampledOut:
			status = "sampled-out"
		}
		fmt.Printf("run %2d (%s, started %s): wall=%v delays=%d (%v total, %d skipped) %s\n",
			r.Run, kind, r.WallStart.Format("15:04:05.000"), r.WallDur,
			r.Stats.Count, time.Duration(r.Stats.Total), r.Stats.Skipped, status)
	}

	fmt.Print(report.RunTimeline(out.Runs, 60))

	if out.Bug == nil {
		fmt.Printf("no MemOrder bug manifested in %d runs\n", len(out.Runs))
	} else {
		b := out.Bug
		fmt.Printf("\nBUG EXPOSED: %s\n", b.Kind())
		fmt.Printf("  input:     %s (run %d)\n", b.Program, b.Run)
		fmt.Printf("  fault:     %v\n", b.NullRef)
		fmt.Printf("  at:        %v into the run\n", time.Duration(b.Fault.T))
		if len(b.Candidates) > 0 {
			fmt.Println("  candidate pairs involved:")
			for _, p := range b.Candidates {
				fmt.Printf("    {%s, %s} %s (gap %v, %d near misses)\n",
					p.Delay, p.Target, p.Kind, time.Duration(p.Gap), p.Count)
			}
		}
		fmt.Printf("  delays in exposing run: %d (%v total)\n", b.Delays.Count, time.Duration(b.Delays.Total))
		if reportPath != "" {
			f, err := os.Create(reportPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
				os.Exit(1)
			}
			if err := b.WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("  report written to %s\n", reportPath)
		}
	}

	if planPath != "" && d.Plan() != nil {
		f, err := os.Create(planPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		if err := d.Plan().WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("plan written to %s\n", planPath)
	}
	if tracePath != "" && d.PrepTrace() != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		if err := d.PrepTrace().WriteBinary(f); err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("preparation trace written to %s\n", tracePath)
	}
	if benchPath != "" {
		payload := liveBench{
			Demo: demo.Name, Exposed: out.Bug != nil,
			Runs: len(out.Runs), Phases: d.Phases(),
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err == nil {
			err = os.WriteFile(benchPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "waffle: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("live bench written to %s\n", benchPath)
	}
	mc.finish()
	if out.Bug == nil {
		os.Exit(3)
	}
}
