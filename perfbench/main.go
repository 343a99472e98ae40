// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the system in-process through its public package
// surfaces and prints every metric by name and unit, then one JSON line:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
//
// Workloads: suite (the 11 built-in apps through core.Session), campaign
// (genprog corpus jobs through server.Manager) and live (live.Monitor under
// closed-loop clients). --trace 1 adds a traced pass and reports the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"waffle/internal/stats"
)

// config is one invocation's parsed arguments.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tmp      string // scratch directory, removed when the run ends
}

// workloadSpec is one benchmark workload: its driver, and the layers it never
// reaches, whose per-layer metrics read zero work in a traced run.
type workloadSpec struct {
	drive    func(config, *report)
	bypassed []string
}

var workloads = map[string]workloadSpec{
	"suite":    {runSuite, []string{"genprog", "sched", "server", "memmodel", "live"}},
	"campaign": {runCampaign, []string{"live"}},
	"live":     {runLive, []string{"sim", "trace", "analyze.ns_per_event", "inject.access_ns", "inject.accesses", "session", "genprog", "sched", "server", "memmodel"}},
}

// watchdogAfter bounds one invocation: a hung layer ends the run with a
// named failure, inside the 180 s every run must finish in.
const watchdogAfter = 150 * time.Second

// timeSetup's batches: how many, and the build time each spends.
const (
	setupSamples = 41
	setupBatch   = 5 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "suite | campaign | live")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the untraced measurement runs")
	traced := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload suite|campaign|live, --seconds >= 1, --trace 0|1 (got %q, %d, %d)\n", *name, *seconds, *traced)
		return 2
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, tmp: tmp}
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workload, cfg.seed, *seconds, *traced)

	keep := endToEnd
	r := &report{}
	if cfg.trace {
		keep = perLayer
		for _, m := range perLayer {
			if bypasses(w.bypassed, m.name) {
				r.set(m.name, m.unit, 0)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.drive(cfg, r)
	}()
	select {
	case <-done:
	case <-time.After(watchdogAfter):
		r.breach("watchdog: workload %s still running after %s", cfg.workload, watchdogAfter)
		r.write(os.Stdout, keep)
		return 3
	}
	if !r.write(os.Stdout, keep) {
		return 1
	}
	return 0
}

// bypasses reports whether metric belongs to one of the listed layers (a
// name prefix up to a dot) or is one of the listed metrics.
func bypasses(layers []string, metric string) bool {
	for _, l := range layers {
		if metric == l || strings.HasPrefix(metric, l+".") {
			return true
		}
	}
	return false
}

// timeSetup builds a workload's set-up in setupSamples batches, each
// building until setupBatch of build time is spent, and returns in seconds
// the median over batches of the mean build time. setup returns a release
// function for what it built; every build but the last is released,
// untimed, and the last is what the caller keeps.
//
// One build takes microseconds to a millisecond. Timed one at a time, a
// build either does or does not meet a collection, so single builds read
// the collector's timing more than the set-up's; a batch mean charges each
// build its share of the collections its allocation causes at the
// default pacing.
func timeSetup(setup func() (release func())) float64 {
	means := make([]float64, setupSamples)
	var release func()
	for i := range means {
		var spent time.Duration
		n := 0
		for spent < setupBatch {
			if release != nil {
				release()
			}
			t0 := time.Now()
			release = setup()
			spent += time.Since(t0)
			n++
		}
		means[i] = spent.Seconds() / float64(n)
	}
	return stats.MedianFloat(means)
}

// clients is the number of concurrent clients and workers a workload
// uses: one per core, at most two.
func clients() int { return min(2, runtime.NumCPU()) }
