// Command waffle-repro replays a persisted bug report deterministically —
// the triage flow a CI system runs after a nightly waffle sweep: load the
// JSON report that `waffle -report` wrote, rebuild the minimal plan (the
// culprit candidate pair, probability 1, fully serialized), re-execute the
// named test at the exposing seed, and confirm the same fault fires.
//
// Usage:
//
//	waffle -test SSH.Net/Bug-2 -report bug.json
//	waffle-repro -report bug.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"waffle/internal/apps"
	"waffle/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on the writers it is given. It returns the exit
// code: 0 when the report reproduced, 1 on an unreadable report or
// unknown test, 2 on bad usage, 3 when the replay did not reproduce.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("waffle-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		reportPath = fs.String("report", "", "bug report JSON written by waffle -report")
		verbose    = fs.Bool("v", false, "print the minimal plan before replaying")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *reportPath == "" {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "waffle-repro: %v\n", err)
		return 1
	}

	f, err := os.Open(*reportPath)
	if err != nil {
		return fail(err)
	}
	bug, err := core.ReadBugReportJSON(f)
	f.Close()
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *reportPath, err))
	}

	test := findTest(bug.Program)
	if test == nil {
		return fail(fmt.Errorf("report names unknown test %q", bug.Program))
	}

	fmt.Fprintf(stdout, "report:  %s (%s at %s, run %d, seed %d)\n",
		bug.Program, bug.Kind(), bug.FaultSite(), bug.Run, bug.Seed)
	if *verbose {
		plan := core.MinimalPlan(bug, core.Options{})
		fmt.Fprintf(stdout, "minimal plan: %d pair(s)\n", len(plan.Pairs))
		for _, p := range plan.Pairs {
			fmt.Fprintf(stdout, "  {%s -> %s} %v, delay %v\n",
				p.Delay, p.Target, p.Kind, plan.DelayLen[p.Delay])
		}
	}

	rep := core.Replay(test.Prog, bug, core.Options{})
	fmt.Fprintf(stdout, "replay:  %v\n", rep)
	if !rep.Reproduced {
		return 3
	}
	return 0
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
