package live

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// TestDemosExposedWithinTenDetectionRuns is the live-mode acceptance
// criterion: each planted bug must be exposed by the detector within 10
// detection runs (11 runs total including preparation), with real
// goroutines and real injected sleeps, clean under -race.
func TestDemosExposedWithinTenDetectionRuns(t *testing.T) {
	for _, demo := range Demos() {
		demo := demo
		t.Run(demo.Name, func(t *testing.T) {
			t.Parallel()
			d := NewDetector(Options{RunTimeout: 10 * time.Second})
			out := d.Expose(demo.Scenario, 11, 42)
			if out.Bug == nil {
				t.Fatalf("%s: no bug exposed in %d runs", demo.Name, len(out.Runs))
			}
			if out.Bug.Run > 11 {
				t.Fatalf("%s: exposed in run %d, want <= 11", demo.Name, out.Bug.Run)
			}
			if got := out.Bug.Kind(); got != demo.Kind {
				t.Fatalf("%s: exposed %v, want %v", demo.Name, got, demo.Kind)
			}
			if out.Bug.Delays.Count == 0 {
				t.Fatalf("%s: bug attributed to a run with zero injected delays", demo.Name)
			}
			if len(out.Bug.Candidates) == 0 {
				t.Fatalf("%s: bug report carries no candidate pairs", demo.Name)
			}
		})
	}
}

// TestPrepAloneDoesNotExpose is the control half of the acceptance
// criterion: 20 delay-free preparation runs must complete without a
// fault — the bugs are ordering bugs that need active delays, not crashes
// the natural schedule produces.
func TestPrepAloneDoesNotExpose(t *testing.T) {
	for _, demo := range Demos() {
		demo := demo
		t.Run(demo.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < 20; i++ {
				d := NewDetector(Options{RunTimeout: 10 * time.Second})
				plan, rep := d.Prepare(demo.Scenario, int64(i))
				if rep.Fault != nil {
					t.Fatalf("prep repeat %d faulted: %v", i, rep.Fault.Err)
				}
				if rep.TimedOut {
					t.Fatalf("prep repeat %d timed out", i)
				}
				if plan == nil || len(plan.Pairs) == 0 {
					t.Fatalf("prep repeat %d produced no candidate pairs", i)
				}
			}
		})
	}
}

// TestDisposerPlanShape checks the analyzed plan end to end: exactly the
// planted use-after-free pair survives, the init→use pair is pruned by
// the fork clocks, and the delay length tracks the observed ~35ms gap.
func TestDisposerPlanShape(t *testing.T) {
	demo, _ := FindDemo("disposer")
	d := NewDetector(Options{})
	plan, rep := d.Prepare(demo.Scenario, 1)
	if rep.Fault != nil {
		t.Fatalf("prep faulted: %v", rep.Fault.Err)
	}
	if len(plan.Pairs) != 1 {
		t.Fatalf("plan has %d pairs, want 1 (init→use must be fork-clock pruned): %+v", len(plan.Pairs), plan.Pairs)
	}
	p := plan.Pairs[0]
	if p.Kind != core.UseAfterFree {
		t.Errorf("pair kind = %v, want use-after-free", p.Kind)
	}
	if p.Delay != "disposer.worker.Send" || p.Target != "disposer.Close" {
		t.Errorf("pair sites = %s → %s, want disposer.worker.Send → disposer.Close", p.Delay, p.Target)
	}
	gap := time.Duration(p.Gap)
	if gap < 10*time.Millisecond || gap > 90*time.Millisecond {
		t.Errorf("observed gap %v implausible for a ~35ms planted gap", gap)
	}
	if plan.Probs[p.Delay] != 1.0 {
		t.Errorf("fresh plan probability = %v, want 1.0", plan.Probs[p.Delay])
	}
}

// TestPrepTraceSorted checks the shard merge: wall-clock timestamps from
// concurrent goroutines come out time-sorted with dense Seq, as the
// analyzer and codec require.
func TestPrepTraceSorted(t *testing.T) {
	demo, _ := FindDemo("disposer")
	d := NewDetector(Options{})
	if _, rep := d.Prepare(demo.Scenario, 1); rep.Fault != nil {
		t.Fatalf("prep faulted: %v", rep.Fault.Err)
	}
	tr := d.PrepTrace()
	if tr == nil || len(tr.Events) != 3 {
		t.Fatalf("trace = %+v, want 3 events (init, use, dispose)", tr)
	}
	if !tr.TimeSorted() {
		t.Fatal("merged trace not time-sorted")
	}
	for i, ev := range tr.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.Clock == nil {
			t.Fatalf("event %d has no fork clock", i)
		}
	}
}

// TestSpawnClockProtocol checks the copy-append-bump protocol across a
// real goroutine spawn: pre-fork parent events order before the child,
// post-fork parent events are concurrent with it.
func TestSpawnClockProtocol(t *testing.T) {
	var preFork, child, postFork *vclock.Clock
	res := execRun(runSpec{label: "clocks", seed: 1, timeout: time.Second, body: func(root *Thread, h *Heap) {
		preFork = root.clock
		w := root.Spawn("w", func(w *Thread) {
			child = w.clock
		})
		postFork = root.clock
		w.Join()
	}})
	if res.fault != nil {
		t.Fatalf("run faulted: %v", res.fault.Err)
	}
	if !vclock.Ordered(preFork, child) {
		t.Errorf("pre-fork parent clock %v not ordered with child %v", preFork, child)
	}
	if !vclock.Concurrent(postFork, child) {
		t.Errorf("post-fork parent clock %v not concurrent with child %v", postFork, child)
	}
}

// TestOracle covers the lifecycle oracle against real goroutines: faults
// carry typed NullRefErrors, double-dispose resolves via CAS, and the
// guarded use does not fault.
func TestOracle(t *testing.T) {
	res := execRun(runSpec{label: "uaf", seed: 1, timeout: time.Second, body: func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(root, "init")
		r.Dispose(root, "dispose")
		r.Use(root, "use")
	}})
	if res.fault == nil {
		t.Fatal("use after dispose did not fault")
	}
	nre, ok := res.fault.Err.(*memmodel.NullRefError)
	if !ok {
		t.Fatalf("fault error is %T, want *memmodel.NullRefError", res.fault.Err)
	}
	if nre.State != memmodel.StateDisposed || nre.Site != "use" {
		t.Errorf("fault = %+v, want disposed state at site use", nre)
	}

	res = execRun(runSpec{label: "double-dispose", seed: 1, timeout: time.Second, body: func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(root, "init")
		r.Dispose(root, "d1")
		r.Dispose(root, "d2")
	}})
	if res.fault == nil {
		t.Fatal("double dispose did not fault")
	}

	res = execRun(runSpec{label: "guarded", seed: 1, timeout: time.Second, body: func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		if r.UseIfLive(root, "guarded") {
			t.Error("uninitialized ref reported live")
		}
	}})
	if res.fault != nil {
		t.Fatalf("guarded use faulted: %v", res.fault.Err)
	}
}

// TestNonLifecyclePanicBecomesFault checks that an arbitrary scenario
// panic (a genuine nil deref, say) surfaces as a run fault rather than
// crashing the test process — and does NOT become a BugReport.
func TestNonLifecyclePanicBecomesFault(t *testing.T) {
	d := NewDetector(Options{})
	out := d.Expose(Scenario{Name: "panicky", Body: func(root *Thread, h *Heap) {
		var m map[string]int
		m["boom"] = 1 // assignment to nil map: real runtime panic
	}}, 3, 1)
	if out.Bug != nil {
		t.Fatalf("non-lifecycle panic produced a BugReport: %v", out.Bug)
	}
	if len(out.Runs) == 0 || out.Runs[0].Fault == nil {
		t.Fatal("panic did not surface as a run fault")
	}
}

// TestRunTimeout checks that a stuck run is abandoned at its wall-clock
// budget and reported as timed out.
func TestRunTimeout(t *testing.T) {
	d := NewDetector(Options{RunTimeout: 50 * time.Millisecond})
	out := d.Expose(Scenario{Name: "stuck", Body: func(root *Thread, h *Heap) {
		time.Sleep(10 * time.Second)
	}, // leaks its goroutine by design
	}, 1, 1)
	if len(out.Runs) != 1 || !out.Runs[0].TimedOut {
		t.Fatalf("runs = %+v, want one timed-out run", out.Runs)
	}
}

// TestTimedOutDetectionRunIsolatesPlan is the regression test for the
// plan-isolation fix: a timed-out detection run leaks goroutines that
// keep calling the abandoned run's injector, decaying its plan's Probs
// under that injector's own mutex. Each detection run must therefore
// inject from a private plan clone — otherwise those leaked writes race
// with the next run's injector (a different mutex) on the shared map,
// which the race detector flags and which corrupts decay state. The
// scenario's detection runs outlive the run budget while hammering an
// instrumented site; the assertion is simply that two such runs back to
// back stay -race-clean and the detector's plan survives intact.
func TestTimedOutDetectionRunIsolatesPlan(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	body := func(root *Thread, h *Heap) {
		n := calls.Add(1) // 1 = baseline, 2 = preparation, 3+ = detection
		conn := h.NewRef("conn")
		conn.Init(root, "iso.Open")
		w := root.Spawn("worker", func(w *Thread) {
			w.Sleep(2 * time.Millisecond)
			conn.UseIfLive(w, "iso.worker.Send")
			if n < 3 {
				return
			}
			// Detection runs: outlive the run budget and keep hitting the
			// instrumented site, so the leaked goroutine drives the
			// abandoned injector while the detector is in later runs.
			for {
				select {
				case <-release:
					return
				default:
					conn.UseIfLive(w, "iso.worker.Send")
					time.Sleep(100 * time.Microsecond)
				}
			}
		})
		root.Sleep(8 * time.Millisecond)
		conn.Dispose(root, "iso.Close")
		root.Join(w)
	}

	d := NewDetector(Options{RunTimeout: 25 * time.Millisecond})
	out := d.Expose(Scenario{Name: "iso", Body: body}, 3, 1)
	if out.Bug != nil {
		t.Fatalf("guarded scenario exposed a bug: %v", out.Bug)
	}
	if len(out.Runs) != 3 || !out.Runs[1].TimedOut || !out.Runs[2].TimedOut {
		t.Fatalf("runs = %+v, want prep + two timed-out detection runs", out.Runs)
	}
	plan := d.Plan()
	if plan == nil || len(plan.Probs) == 0 {
		t.Fatal("detector lost its plan")
	}
	for site, p := range plan.Probs {
		if p < 0 || p > 1 {
			t.Errorf("plan probability for %s corrupted: %v", site, p)
		}
	}
}

// TestWallClockReporting checks the satellite: live runs stamp physical
// start time and duration into their RunReports, and run End is the
// nanosecond duration of the run.
func TestWallClockReporting(t *testing.T) {
	demo, _ := FindDemo("disposer")
	d := NewDetector(Options{})
	before := time.Now()
	out := d.Expose(demo.Scenario, 2, 1)
	after := time.Now()
	if len(out.Runs) == 0 {
		t.Fatal("no runs recorded")
	}
	for i, r := range out.Runs {
		if r.WallStart.Before(before) || r.WallStart.After(after) {
			t.Errorf("run %d WallStart %v outside [%v, %v]", i, r.WallStart, before, after)
		}
		if r.WallDur < 40*time.Millisecond {
			t.Errorf("run %d WallDur %v shorter than the scenario's 40ms floor", i, r.WallDur)
		}
		if got, want := time.Duration(r.End), r.WallDur; got > want+20*time.Millisecond || got < want-20*time.Millisecond {
			t.Errorf("run %d End %v disagrees with WallDur %v", i, got, want)
		}
	}
}

// TestExposeTCleanBody checks the test-helper entry point on a bug-free
// body: it must not fail the test and must perform the requested runs.
func TestExposeTCleanBody(t *testing.T) {
	out := ExposeT(t, func(root *Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(root, "init")
		w := root.Spawn("w", func(w *Thread) {
			r.Use(w, "use")
		})
		w.Join()
		r.Dispose(root, "dispose")
	}, 3)
	if out.Bug != nil {
		t.Fatalf("clean body exposed a bug: %v", out.Bug)
	}
	if len(out.Runs) != 3 {
		t.Fatalf("performed %d runs, want 3", len(out.Runs))
	}
}

// TestDetectionRecordsIntervals checks injector accounting on the wall
// clock: the exposing run's intervals are real sleeps at the planned
// site, clamped within the planned duration.
func TestDetectionRecordsIntervals(t *testing.T) {
	demo, _ := FindDemo("disposer")
	d := NewDetector(Options{})
	out := d.Expose(demo.Scenario, 11, 7)
	if out.Bug == nil {
		t.Fatal("no bug exposed")
	}
	ivs := out.Bug.Delays.Intervals
	if len(ivs) == 0 {
		t.Fatal("exposing run recorded no delay intervals")
	}
	for _, iv := range ivs {
		if iv.Site != "disposer.worker.Send" {
			t.Errorf("delay injected at %s, want disposer.worker.Send", iv.Site)
		}
		if dur := time.Duration(iv.Dur()); dur <= 0 || dur > 500*time.Millisecond {
			t.Errorf("interval duration %v implausible", dur)
		}
	}
}

// TestTraceRoundTripsThroughCodec checks that a live wall-clock trace
// survives the binary codec byte-for-byte semantically: analysis of the
// decoded trace yields the same plan as the original.
func TestTraceRoundTripsThroughCodec(t *testing.T) {
	demo, _ := FindDemo("disposer")
	d := NewDetector(Options{})
	plan, rep := d.Prepare(demo.Scenario, 1)
	if rep.Fault != nil {
		t.Fatalf("prep faulted: %v", rep.Fault.Err)
	}
	tr := d.PrepTrace()

	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("encode live trace: %v", err)
	}
	back, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode live trace: %v", err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d != %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if back.Events[i].T != tr.Events[i].T {
			t.Fatalf("event %d timestamp %d != %d after round trip", i, back.Events[i].T, tr.Events[i].T)
		}
	}
	plan2 := core.Analyze(back, NewDetector(Options{}).opts.coreOptions())
	if len(plan2.Pairs) != len(plan.Pairs) {
		t.Fatalf("decoded trace analyzed to %d pairs, want %d", len(plan2.Pairs), len(plan.Pairs))
	}
}

// TestRecordingMergesSealedChunks drives one recording run whose spawned
// threads each record more events than a shard chunk holds, so every
// shard seals full chunks mid-run and the merge must stitch them back
// together. Site labels carry (thread, index), which lets the test check
// that each thread's events survive the merge exactly in program order.
func TestRecordingMergesSealedChunks(t *testing.T) {
	const workers, perWorker = 3, 2500
	sites := make([][]trace.SiteID, workers)
	for w := range sites {
		sites[w] = make([]trace.SiteID, perWorker)
		for i := range sites[w] {
			sites[w][i] = trace.SiteID(fmt.Sprintf("w%d.%04d", w, i))
		}
	}
	tids := make([]int, workers)
	res := execRun(runSpec{
		label: "chunks", seed: 1, access: recordAccess, recording: true,
		timeout: time.Minute,
		body: func(root *Thread, h *Heap) {
			r := h.NewRef("r")
			hs := make([]*Handle, workers)
			for w := range hs {
				w := w
				hs[w] = root.Spawn(fmt.Sprintf("w%d", w), func(th *Thread) {
					tids[w] = th.ID()
					for _, site := range sites[w] {
						r.UseIfLive(th, site)
					}
				})
			}
			for _, h := range hs {
				root.Join(h)
			}
		},
	})
	if res.fault != nil || res.timedOut {
		t.Fatalf("run faulted or timed out: %+v", res)
	}
	tr := res.trace
	if tr == nil {
		t.Fatal("recording run collected no trace")
	}
	if len(tr.Events) != workers*perWorker {
		t.Fatalf("trace has %d events, want %d", len(tr.Events), workers*perWorker)
	}
	if !tr.TimeSorted() {
		t.Fatal("merged trace not time-sorted")
	}
	next := make(map[int]int) // tid -> index of its next expected access
	worker := make(map[int]int)
	for w, tid := range tids {
		worker[tid] = w
	}
	for i, ev := range tr.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.Clock == nil {
			t.Fatalf("event %d has no fork clock", i)
		}
		if i > 0 {
			prev := tr.Events[i-1]
			if ev.T == prev.T && ev.TID < prev.TID {
				t.Fatalf("event %d: (T, TID) = (%d, %d) after (%d, %d)", i, ev.T, ev.TID, prev.T, prev.TID)
			}
		}
		w, ok := worker[ev.TID]
		if !ok {
			t.Fatalf("event %d recorded by unexpected thread %d", i, ev.TID)
		}
		k := next[ev.TID]
		if k >= perWorker || ev.Site != sites[w][k] {
			t.Fatalf("event %d: thread %d's access %d is %s, want program order", i, ev.TID, k, ev.Site)
		}
		next[ev.TID] = k + 1
	}
}
