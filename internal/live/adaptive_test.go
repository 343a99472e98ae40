package live

import (
	"sync/atomic"
	"testing"
	"time"

	"waffle/internal/core"
)

// escalatingTuner retunes Alpha/Decay at every boundary and records what
// it saw — the most hostile well-formed controller for race purposes.
type escalatingTuner struct {
	boundaries atomic.Int32
	stopAt     int
	shrinkTo   int
}

func (et *escalatingTuner) TuneRun(ctx core.TuneContext) core.TuneDecision {
	et.boundaries.Add(1)
	if et.stopAt > 0 && ctx.Run >= et.stopAt {
		return core.TuneDecision{Stop: true}
	}
	opts := ctx.Opts
	opts.Alpha *= 1.01
	opts.Decay *= 1.1
	d := core.TuneDecision{Opts: &opts}
	if et.shrinkTo > 0 {
		d.MaxRuns = et.shrinkTo
	}
	return d
}

// A stop decision ends the live search at the boundary, before the run
// it gates executes.
func TestLiveTunerStopEndsSearch(t *testing.T) {
	body := func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(root, "adapt.init")
		w := root.Spawn("w", func(th *Thread) {
			th.Sleep(100 * time.Microsecond)
			r.UseIfLive(th, "adapt.use")
		})
		root.Join(w)
	}
	et := &escalatingTuner{stopAt: 3}
	d := NewDetector(Options{RunTimeout: 5 * time.Second, Tuner: et})
	out := d.Expose(Scenario{Name: "adapt-stop", Body: body}, 10, 1)
	if len(out.Runs) != 2 {
		t.Fatalf("performed %d runs, want 2 (stopped before run 3)", len(out.Runs))
	}
	if et.boundaries.Load() != 3 {
		t.Fatalf("tuner consulted %d times, want 3", et.boundaries.Load())
	}
}

// A budget shrink bounds the live search like a smaller maxRuns argument.
func TestLiveTunerShrinksBudget(t *testing.T) {
	body := func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(root, "shrink.init")
		r.Use(root, "shrink.use")
	}
	d := NewDetector(Options{RunTimeout: 5 * time.Second, Tuner: &escalatingTuner{shrinkTo: 4}})
	out := d.Expose(Scenario{Name: "adapt-shrink", Body: body}, 20, 1)
	if len(out.Runs) != 4 {
		t.Fatalf("performed %d runs, want 4 after budget shrink", len(out.Runs))
	}
}

// Run-boundary retuning must not race goroutines leaked by a timed-out
// run. A timed-out detection run abandons its injector, but Go cannot
// kill its goroutines: they keep calling the abandoned injector — which
// captured its own copy of the options at NewInjector — while the
// detector applies the tuner's new options for the next run. With
// options shared by reference instead of copied, every boundary retune
// here would race the leaked workers' delay computations; under -race
// this test would fail. Modeled on TestTimedOutRunStatsAreRaceFreeSnapshots.
func TestRetuneDoesNotRaceLeakedGoroutines(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	body := func(root *Thread, h *Heap) {
		n := calls.Add(1) // 1 = baseline, 2 = preparation, 3+ = detection
		conn := h.NewRef("conn")
		conn.Init(root, "retune.Open")
		w := root.Spawn("worker", func(w *Thread) {
			w.Sleep(200 * time.Microsecond)
			conn.UseIfLive(w, "retune.worker.Send")
			if n < 3 {
				return
			}
			// Detection runs: outlive the run timeout and keep hitting the
			// instrumented site, so the leaked goroutine keeps exercising
			// the abandoned injector's options while the detector retunes
			// at each subsequent boundary.
			for {
				select {
				case <-release:
					return
				default:
					conn.UseIfLive(w, "retune.worker.Send")
					time.Sleep(50 * time.Microsecond)
				}
			}
		})
		root.Sleep(time.Millisecond)
		conn.Dispose(root, "retune.Close")
		root.Join(w)
	}

	// Near-zero decay keeps the leaked goroutines injecting for the whole
	// test; the escalating tuner retunes at every boundary in between.
	et := &escalatingTuner{}
	d := NewDetector(Options{RunTimeout: 25 * time.Millisecond, Decay: 1e-9, Tuner: et})
	out := d.Expose(Scenario{Name: "retune", Body: body}, 5, 1)
	if out.Bug != nil {
		t.Fatalf("guarded scenario exposed a bug: %v", out.Bug)
	}
	if et.boundaries.Load() < 3 {
		t.Fatalf("tuner consulted %d times, want >= 3", et.boundaries.Load())
	}
	// Hold the leaked goroutines alive past the last retune so the race
	// window stays open while the test tears down.
	time.Sleep(30 * time.Millisecond)
}

// recordingTuner doubles Alpha at every boundary and records the options
// each boundary saw.
type recordingTuner struct {
	seen []core.Options
}

func (rt *recordingTuner) TuneRun(ctx core.TuneContext) core.TuneDecision {
	rt.seen = append(rt.seen, ctx.Opts)
	opts := ctx.Opts
	opts.Alpha *= 2
	return core.TuneDecision{Opts: &opts}
}

// A reused Detector continues the same search: a later Expose call starts
// from the options the Tuner last set, not from the constructed ones —
// the same way a core.Session over a reused Waffle does.
func TestReusedDetectorKeepsRetunes(t *testing.T) {
	body := func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(root, "reuse.init")
		r.Use(root, "reuse.use")
	}
	rt := &recordingTuner{}
	d := NewDetector(Options{RunTimeout: 5 * time.Second, Tuner: rt})
	s := Scenario{Name: "reuse", Body: body}
	d.Expose(s, 3, 1)
	d.Expose(s, 3, 1)
	if len(rt.seen) != 6 {
		t.Fatalf("tuner consulted %d times, want 6", len(rt.seen))
	}
	if rt.seen[0].Alpha != DefaultAlpha {
		t.Fatalf("first boundary saw alpha %g, want the default %g", rt.seen[0].Alpha, DefaultAlpha)
	}
	if got, want := rt.seen[3].Alpha, 2*rt.seen[2].Alpha; got != want {
		t.Fatalf("second Expose started from alpha %g, want the last retune %g", got, want)
	}
}
