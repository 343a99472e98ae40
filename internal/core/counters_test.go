package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// faultMidDelay runs a scenario in which the hook delays the Init at
// ctor.go:2 long enough for a second thread's Use to fault while that
// delay is still in flight — the exposing schedule, which tears the
// delayed thread down mid-Sleep.
func faultMidDelay(t *testing.T, hook memmodel.Hook) {
	t.Helper()
	h := memmodel.NewHeap()
	h.SetHook(hook)
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(root *sim.Thread) {
		r := h.NewRef("listener")
		user := root.Spawn("event", func(th *sim.Thread) {
			th.Sleep(1 * sim.Millisecond)
			r.Use(th, "handler.go:8")
		})
		r.Init(root, "ctor.go:2")
		root.Join(user)
	})
	if err == nil {
		t.Fatal("scenario did not fault: the delay never exposed the bug")
	}
}

func TestInjectorReleasesCountersOnMidDelayFault(t *testing.T) {
	inj := NewInjector(planWith("ctor.go:2", 10*sim.Millisecond), Options{InstrCost: -1})
	faultMidDelay(t, inj)
	assertDrained(t, inj.Actuator)
	if got := inj.Stats().Count; got != 1 {
		t.Fatalf("delays recorded = %d, want 1 (the exposing delay)", got)
	}
}

func TestOnlineReleasesCountersOnMidDelayFault(t *testing.T) {
	o := NewOnline(WaffleBasicConfig(Options{InstrCost: -1}))
	p := &Pair{Delay: "ctor.go:2", Target: "handler.go:8", Kind: UseBeforeInit, Gap: 5 * sim.Millisecond}
	o.pairs[p.key()] = p
	o.bySite[p.Delay] = []*Pair{p}
	o.lens[p.Delay] = p.Gap
	o.probs[p.Delay] = 1.0
	o.BeginRun()
	faultMidDelay(t, o)
	assertDrained(t, o.Actuator)
	if got := o.Stats().Count; got != 1 {
		t.Fatalf("delays recorded = %d, want 1 (the exposing delay)", got)
	}
}

// TestInterferenceControlSeesNoLeakedDelayAcrossRuns checks that a fault
// unwinding a delay releases the actuator's in-flight count: a counter
// that stayed live would make interference control treat the faulted
// site's delay as ongoing in any later consumer of the same state.
func TestInterferenceControlSeesNoLeakedDelayAcrossRuns(t *testing.T) {
	site := trace.SiteID("ctor.go:2")
	plan := planWith(site, 10*sim.Millisecond)
	plan.Interfere = map[trace.SiteID][]trace.SiteID{"other": {site}, site: {"other"}}
	inj := NewInjector(plan, Options{InstrCost: -1})
	faultMidDelay(t, inj)
	if got := inj.Stats().Count; got != 1 {
		t.Fatalf("delays recorded = %d, want 1 (the exposing delay)", got)
	}
	assertDrained(t, inj.Actuator)
	if inj.interfering("other") {
		t.Fatal("leaked counter: faulted site's delay still reads as live")
	}
}

// TestOnlineRetunedDecayGovernsNextDecay checks that a Decay retuned
// through SetOptions reaches the actuator: the next completed delay
// lowers the probability by the new step, not the constructed one.
func TestOnlineRetunedDecayGovernsNextDecay(t *testing.T) {
	o := NewOnline(WaffleBasicConfig(Options{InstrCost: -1, Decay: 0.5}))
	p := &Pair{Delay: "ctor.go:2", Target: "handler.go:8", Kind: UseBeforeInit, Gap: 5 * sim.Millisecond}
	o.pairs[p.key()] = p
	o.bySite[p.Delay] = []*Pair{p}
	o.lens[p.Delay] = p.Gap
	o.probs[p.Delay] = 1.0
	o.SetOptions(Options{InstrCost: -1, Decay: 0.25})
	o.BeginRun()
	hookRun(t, o, func(th *sim.Thread, h *memmodel.Heap) { h.NewRef("listener").Init(th, "ctor.go:2") })
	if n, got := o.Stats().Count, o.probs[p.Delay]; n != 1 || got != 0.75 {
		t.Fatalf("%d delays left probability %v, want 1 leaving 0.75 (decayed by the retuned 0.25)", n, got)
	}
}

// errCutShort stands in for a fault that tears a live thread down
// mid-delay.
var errCutShort = errors.New("delay cut short")

// wallExec is one goroutine's Exec: a wall clock in nanoseconds, real
// sleeps, a private seeded stream. Every fifth delay faults at once.
type wallExec struct {
	id, sleeps int
	base       time.Time
	rng        *rand.Rand
}

func (e *wallExec) ID() int       { return e.id }
func (e *wallExec) Now() sim.Time { return sim.Time(time.Since(e.base)) }
func (e *wallExec) Rand() float64 { return e.rng.Float64() }
func (e *wallExec) Sleep(d sim.Duration) {
	if e.sleeps++; e.sleeps%5 == 0 {
		panic(errCutShort)
	}
	time.Sleep(time.Duration(d))
}

// TestInjectorConcurrentDelaysRespectInterference drives one Injector from
// 8 goroutines at once. Sites a and b interfere, c interferes with itself,
// d with nothing. No two interfering delays may overlap, every interval is
// clamped to its delay, and every in-flight count is back at 0 at the end.
// Run it under -race: the plan's DelayLen and Interfere are read without
// a lock.
func TestInjectorConcurrentDelaysRespectInterference(t *testing.T) {
	const gap sim.Duration = 200_000 // 200µs in wall-clock nanosecond ticks
	sites := []trace.SiteID{"a", "b", "c", "d"}
	plan := &Plan{
		DelayLen:  map[trace.SiteID]sim.Duration{"a": gap, "b": gap, "c": gap, "d": gap},
		Interfere: map[trace.SiteID][]trace.SiteID{"a": {"b"}, "b": {"a"}, "c": {"c"}},
		Probs:     map[trace.SiteID]float64{"a": 1, "b": 1, "c": 1, "d": 1},
	}
	inj := NewInjector(plan, Options{InstrCost: -1, Decay: 0.001})
	base := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(e *wallExec) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				func() {
					defer func() {
						if r := recover(); r != nil && r != errCutShort {
							panic(r)
						}
					}()
					inj.Access(e, sites[(e.id+i)%len(sites)], 0, trace.KindUse, 0)
				}()
			}
		}(&wallExec{id: g, base: base, rng: rand.New(rand.NewSource(int64(g)))})
	}
	wg.Wait()

	st, d, cut := inj.Stats(), inj.opts.delayFor(gap), 0
	for i, x := range st.Intervals {
		if x.End < x.Start || x.End > x.Start.Add(d) {
			t.Fatalf("interval %+v not clamped to [start, start+%v]", x, d)
		}
		if x.End < x.Start.Add(d) {
			cut++
		}
		for _, y := range st.Intervals[i+1:] {
			if plan.InterferesWith(x.Site, y.Site) && x.Start < y.End && y.Start < x.End {
				t.Fatalf("interfering delays overlap: %+v and %+v", x, y)
			}
		}
	}
	if st.Skipped == 0 || cut == 0 {
		t.Fatalf("skipped %d, cut short %d of %d: interference or unwinding never exercised", st.Skipped, cut, st.Count)
	}
	assertDrained(t, inj.Actuator)
}

// assertDrained fails unless a has no delay in flight.
func assertDrained(t *testing.T, a *Actuator) {
	t.Helper()
	for s, n := range a.active {
		if n != 0 || a.activeTotal != 0 {
			t.Fatalf("active[%s] = %d, activeTotal %d once every thread finished, want 0", s, n, a.activeTotal)
		}
	}
}
