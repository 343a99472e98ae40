package live

import (
	"testing"
	"time"
)

// plantedUAF is a fast live-disposer body: the worker's use naturally
// beats the dispose by ~8ms; an injected delay at the use site flips the
// order into a use-after-free.
func plantedUAF(t *Thread, h *Heap) {
	conn := h.NewRef("conn")
	conn.Init(t, "mon.Open")
	w := t.Spawn("worker", func(w *Thread) {
		w.Sleep(2 * time.Millisecond)
		conn.Use(w, "mon.worker.Send")
	})
	t.Sleep(10 * time.Millisecond)
	conn.Dispose(t, "mon.Close")
	t.Join(w)
}

// cleanBody has the same shape with a guarded use: instrumented, never
// faulting — the false-positive control.
func cleanBody(t *Thread, h *Heap) {
	conn := h.NewRef("conn")
	conn.Init(t, "clean.Open")
	w := t.Spawn("worker", func(w *Thread) {
		w.Sleep(time.Millisecond)
		conn.UseIfLive(w, "clean.worker.Send")
	})
	t.Sleep(3 * time.Millisecond)
	conn.Dispose(t, "clean.Close")
	t.Join(w)
}

func TestMonitorExposesPlantedBug(t *testing.T) {
	mon := NewMonitor(11, Options{SampleRate: 1.0})

	var bug RequestReport
	recorded := false
	for i := 0; i < 120; i++ {
		rep := mon.Do("/checkout", plantedUAF)
		recorded = recorded || rep.Recorded
		if rep.Bug != nil {
			bug = rep
			break
		}
	}
	if bug.Bug == nil {
		t.Fatal("monitor never exposed the planted use-after-free")
	}
	if !recorded {
		t.Fatal("no request was marked Recorded")
	}
	if bug.Bug.Delays.Count == 0 {
		t.Fatal("bug reported without injected delays (zero-FP contract)")
	}
	if bug.Bug.NullRef == nil || bug.Bug.NullRef.Site != "mon.worker.Send" {
		t.Fatalf("bug at %+v, want the planted use site", bug.Bug.NullRef)
	}

	st := mon.Status()
	if st.Bugs != 1 || len(st.Targets) != 1 || st.Targets[0].Phase != "detecting" {
		t.Fatalf("status = %+v", st)
	}
	if got := mon.Bugs(); len(got) != 1 {
		t.Fatalf("Bugs() returned %d reports, want 1", len(got))
	}
}

func TestMonitorNoFalsePositives(t *testing.T) {
	mon := NewMonitor(3, Options{SampleRate: 1.0})
	for i := 0; i < 40; i++ {
		rep := mon.Do("/browse", cleanBody)
		if rep.Bug != nil {
			t.Fatalf("clean body produced a bug report on request %d: %+v", i, rep.Bug)
		}
		if rep.Fault != nil {
			t.Fatalf("clean body faulted on request %d: %v", i, rep.Fault)
		}
	}
}

// Stop/start mid-stream: detection pauses (requests run plain), state is
// retained, and results from before the stop stay consistent after the
// restart — the acceptance criterion of the load-smoke e2e, pinned here
// at unit scope.
func TestMonitorStopStartRetainsState(t *testing.T) {
	// A 20ms floor on every delay outlasts the body's ~8ms margin: on a
	// busy host the recording may measure a much shorter gap, whose α·gap
	// delays would decay away without exposing the bug.
	mon := NewMonitor(11, Options{SampleRate: 1.0, MinDelay: 20 * time.Millisecond})
	var exposed bool
	for i := 0; i < 120 && !exposed; i++ {
		exposed = mon.Do("/checkout", plantedUAF).Bug != nil
	}
	if !exposed {
		t.Fatal("setup: bug not exposed before stop")
	}
	bugsBefore := len(mon.Bugs())
	pairsBefore := mon.Status().Targets[0].Pairs

	mon.Stop()
	if mon.Enabled() {
		t.Fatal("Enabled() after Stop")
	}
	// Stop promises plain runs: no admission, no delay, no bug. The plain
	// body may still fault on its own when a busy host lets the worker's
	// 2ms sleep outlast main's 10ms; such a fault is delay-free.
	dfBefore := mon.Metrics().Snapshot().Counters["live.delay_free_faults"]
	var faults int64
	for i := 0; i < 10; i++ {
		rep := mon.Do("/checkout", plantedUAF)
		if rep.Admitted || rep.Delays != 0 || rep.Bug != nil {
			t.Fatalf("stopped monitor still detecting: %+v", rep)
		}
		if rep.Fault != nil {
			faults++
		}
	}
	if got := mon.Metrics().Snapshot().Counters["live.delay_free_faults"] - dfBefore; got != faults {
		t.Fatalf("live.delay_free_faults rose by %d over %d plain faults", got, faults)
	}
	if len(mon.Bugs()) != bugsBefore {
		t.Fatal("stop changed the bug reports")
	}

	mon.Start()
	st := mon.Status()
	if !st.Enabled || st.Bugs != int64(bugsBefore) || st.Targets[0].Pairs != pairsBefore {
		t.Fatalf("state not retained across stop/start: %+v", st)
	}
	// The plan survived: the next admitted request goes straight to
	// detection, no re-recording.
	rep := mon.Do("/checkout", plantedUAF)
	if rep.Recorded {
		t.Fatal("restart re-recorded instead of resuming the existing plan")
	}
	if !rep.Admitted {
		t.Fatal("restarted monitor did not admit at SampleRate=1.0")
	}
}

func TestMonitorTuneValidation(t *testing.T) {
	mon := NewMonitor(1, Options{})
	f := func(v float64) *float64 { return &v }

	for _, bad := range []TuneRequest{
		{SampleRate: f(-0.1)},
		{SampleRate: f(1.5)},
		{Alpha: f(0.5)},
		{Decay: f(2)},
		{SLO: f(-1)},
	} {
		if err := mon.Tune(bad); err == nil {
			t.Fatalf("Tune(%+v) accepted an out-of-range value", bad)
		}
	}
	before := mon.Options()
	if err := mon.Tune(TuneRequest{SampleRate: f(0.5), Alpha: f(2.0), Decay: f(0.2), SLO: f(1.0)}); err != nil {
		t.Fatal(err)
	}
	after := mon.Options()
	if after.SampleRate != 0.5 || after.Alpha != 2.0 || after.Decay != 0.2 || after.SLO != 1.0 {
		t.Fatalf("tune not applied: %+v", after)
	}
	if before.SampleRate == after.SampleRate {
		t.Fatal("options copy aliasing: before-snapshot changed")
	}
	// A rejected request changes nothing.
	if err := mon.Tune(TuneRequest{SampleRate: f(0.9), Alpha: f(-3)}); err == nil {
		t.Fatal("partial-invalid request accepted")
	}
	if got := mon.Options().SampleRate; got != 0.5 {
		t.Fatalf("rejected request partially applied: sample_rate = %g", got)
	}
}

// The SLO budget derives from the baseline p99: after enough
// uninstrumented requests, the budget is finite and positive, and an
// admitted request's injected delays never exceed it.
func TestMonitorBudgetDerivation(t *testing.T) {
	mon := NewMonitor(5, Options{SampleRate: 0.25, SLO: 1.0})
	for i := 0; i < 3*budgetRefreshEvery; i++ {
		mon.Do("/browse", cleanBody)
	}
	b := mon.BudgetNS()
	if b <= 0 {
		t.Fatal("budget never derived from the baseline histogram")
	}
	// Baseline p99 for cleanBody is ~3-4ms; at SLO 1.0 the budget must be
	// in the same range — far below a second.
	if b > int64(time.Second) {
		t.Fatalf("budget %v implausibly large", time.Duration(b))
	}
	st := mon.Status()
	if st.BudgetNS != b || st.BaseP99US <= 0 {
		t.Fatalf("status budget fields inconsistent: %+v", st)
	}
}
