// Command waffle-trace inspects preparation-run traces and the candidate
// plans Waffle's analyzer derives from them.
//
// Usage:
//
//	waffle-trace -stats prep.trace          # event/site/thread statistics
//	waffle-trace -dump prep.trace | head    # event-per-line listing
//	waffle-trace -analyze prep.trace        # run the trace analyzer, print S and I
//	waffle-trace -json prep.trace > t.json  # binary → JSON conversion
//	waffle-trace -to-stream prep.trace > prep.wfts         # WFTR → WFTS stream
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"waffle/internal/core"
	"waffle/internal/report"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

func main() {
	var (
		statsPath   = flag.String("stats", "", "print summary statistics of a trace file")
		dumpPath    = flag.String("dump", "", "print every event of a trace file")
		analyzePath = flag.String("analyze", "", "run Waffle's analyzer on a trace file")
		timePath    = flag.String("timeline", "", "render an ASCII per-thread timeline of a trace file")
		width       = flag.Int("width", 100, "timeline width in columns")
		jsonPath    = flag.String("json", "", "convert a binary trace to JSON on stdout")
		window      = flag.Int("window-ms", 100, "near-miss window δ for -analyze")
		streamOut   = flag.String("to-stream", "", "convert a binary trace to a WFTS event stream on stdout")
	)
	flag.Parse()

	switch {
	case *statsPath != "":
		tr := load(*statsPath)
		printStats(tr)
	case *dumpPath != "":
		tr := load(*dumpPath)
		for _, e := range tr.Events {
			clock := "-"
			if e.Clock != nil {
				clock = e.Clock.String()
			}
			fmt.Printf("%6d  %12v  thd %-3d  %-9s  obj %-5d  %-40s %s\n",
				e.Seq, e.T, e.TID, e.Kind, e.Obj, e.Site, clock)
		}
	case *timePath != "":
		tr := load(*timePath)
		fmt.Print(report.Timeline(tr, *width))
	case *analyzePath != "":
		tr := load(*analyzePath)
		printPlan(core.Analyze(tr, core.Options{Window: sim.Duration(*window) * sim.Millisecond}))
	case *streamOut != "":
		tr := load(*streamOut)
		if err := tr.WriteStream(os.Stdout); err != nil {
			fatal(err)
		}
	case *jsonPath != "":
		tr := load(*jsonPath)
		if err := tr.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w (expected the binary format written by waffle -trace)", path, err))
	}
	return tr
}

func printStats(tr *trace.Trace) {
	s := tr.ComputeStats()
	fmt.Printf("label:    %s\n", tr.Label)
	fmt.Printf("end:      %v\n", tr.End)
	fmt.Printf("events:   %d (%d init, %d use, %d dispose, %d api)\n",
		s.Events, s.InitEvents, s.UseEvents, s.DisposeEvents, s.APIEvents)
	fmt.Printf("threads:  %d\n", s.Threads)
	fmt.Printf("objects:  %d\n", s.Objects)
	fmt.Printf("sites:    %d MemOrder, %d thread-unsafe API\n", s.MemSites, s.APISites)

	// Dynamic-instance distribution (§3.3: init sites execute ~2×/run).
	instances := tr.DynamicInstances()
	var counts []int
	for _, n := range instances {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	if len(counts) > 0 {
		fmt.Printf("dynamic instances per site: min %d, median %d, max %d\n",
			counts[0], counts[(len(counts)-1)/2], counts[len(counts)-1])
	}
}

func printPlan(plan *core.Plan) {
	fmt.Printf("candidate set S: %d pairs\n", len(plan.Pairs))
	for _, p := range plan.Pairs {
		fmt.Printf("  {%s -> %s} %s gap=%v near-misses=%d\n", p.Delay, p.Target, p.Kind, p.Gap, p.Count)
	}
	sites := plan.InjectionSites()
	fmt.Printf("injection sites: %d\n", len(sites))
	for _, s := range sites {
		fmt.Printf("  %-50s delay=%v\n", s, plan.DelayLen[s])
	}
	edges := 0
	for _, list := range plan.Interfere {
		edges += len(list)
	}
	fmt.Printf("interference set I: %d sites, %d directed edges\n", len(plan.Interfere), edges)
	// Iterate in sorted site order: ranging over the map directly would make
	// the output diff-unstable from run to run.
	froms := make([]trace.SiteID, 0, len(plan.Interfere))
	for a := range plan.Interfere {
		froms = append(froms, a)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, a := range froms {
		fmt.Printf("  %s ~ %v\n", a, plan.Interfere[a])
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "waffle-trace: %v\n", err)
	os.Exit(1)
}
