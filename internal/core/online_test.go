package core

import (
	"testing"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// onlineRun drives one program run under the engine and returns it.
func onlineRun(t *testing.T, o *Online, seed int64, body func(*sim.Thread, *memmodel.Heap)) ExecResult {
	t.Helper()
	o.BeginRun()
	prog := &SimProgram{Label: "online", Body: body}
	return prog.Execute(seed, o)
}

// initUseBody is a near-miss init/use pair 2ms apart across two threads.
func initUseBody(root *sim.Thread, h *memmodel.Heap) {
	r := h.NewRef("r")
	user := root.Spawn("user", func(th *sim.Thread) {
		th.Sleep(3 * sim.Millisecond)
		r.Use(th, "use")
	})
	root.Sleep(1 * sim.Millisecond)
	r.Init(root, "init")
	root.Join(user)
}

func TestOnlineIdentifiesNearMissPair(t *testing.T) {
	o := NewOnline(WaffleBasicConfig(Options{}))
	onlineRun(t, o, 1, initUseBody)
	pairs := o.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	p := pairs[0]
	if p.Delay != "init" || p.Target != "use" || p.Kind != UseBeforeInit {
		t.Fatalf("pair = %+v", p)
	}
	if o.InjectionSiteCount() != 1 {
		t.Fatalf("injection sites = %d", o.InjectionSiteCount())
	}
}

// stillExec is an Exec whose clock never moves: every access happens at
// the same instant, so every near miss has gap 0.
type stillExec struct{ id int }

func (e stillExec) ID() int            { return e.id }
func (e stillExec) Now() sim.Time      { return 0 }
func (e stillExec) Rand() float64      { return 0 }
func (e stillExec) Sleep(sim.Duration) {}

// TestOnlineCountsZeroGapInjectionSite admits one init→use pair at gap 0
// and requires its delay site to count as an injection site.
func TestOnlineCountsZeroGapInjectionSite(t *testing.T) {
	o := NewOnline(WaffleBasicConfig(Options{}))
	o.BeginRun()
	o.Access(stillExec{1}, "init", 1, trace.KindInit, 0)
	o.Access(stillExec{2}, "use", 1, trace.KindUse, 0)
	if pairs := o.Pairs(); len(pairs) != 1 || pairs[0].Gap != 0 {
		t.Fatalf("pairs = %+v, want one pair at gap 0", pairs)
	}
	if got := o.InjectionSiteCount(); got != 1 {
		t.Fatalf("injection sites = %d, want 1", got)
	}
}

func TestOnlinePersistsAcrossRunsAndInjects(t *testing.T) {
	o := NewOnline(WaffleBasicConfig(Options{}))
	res := onlineRun(t, o, 1, initUseBody)
	if res.Fault != nil {
		t.Fatalf("run 1 faulted: %v", res.Fault)
	}
	if o.Stats().Count != 0 {
		t.Fatal("run 1 injected before identification")
	}
	res2 := onlineRun(t, o, 2, initUseBody)
	if res2.Fault == nil {
		t.Fatal("run 2 did not expose the bug")
	}
	if o.Stats().Count == 0 {
		t.Fatal("run 2 injected nothing")
	}
	if o.Runs() != 2 {
		t.Fatalf("runs = %d", o.Runs())
	}
}

func TestOnlineParentChildPruning(t *testing.T) {
	body := func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("r")
		r.Init(root, "pre-fork") // before the fork: ordered with child use
		w := root.Spawn("w", func(th *sim.Thread) {
			th.Sleep(1 * sim.Millisecond)
			r.Use(th, "child-use")
		})
		root.Join(w)
	}
	pruning := NewOnline(NoPrepConfig(Options{}))
	onlineRun(t, pruning, 1, body)
	if n := len(pruning.Pairs()); n != 0 {
		t.Fatalf("fork-ordered pair admitted online: %v", pruning.Pairs())
	}
	noPruning := NewOnline(WaffleBasicConfig(Options{}))
	onlineRun(t, noPruning, 1, body)
	if n := len(noPruning.Pairs()); n != 1 {
		t.Fatalf("WaffleBasic config pruned anyway: %v", noPruning.Pairs())
	}
}

func TestOnlineVariableLengths(t *testing.T) {
	o := NewOnline(NoPrepConfig(Options{}))
	onlineRun(t, o, 1, initUseBody) // identify: gap ≈ 2ms
	onlineRun(t, o, 2, initUseBody) // inject variable-length delay
	st := o.Stats()
	if st.Count == 0 {
		t.Fatal("nothing injected")
	}
	for _, iv := range st.Intervals {
		if iv.Dur() >= DefaultFixedDelay {
			t.Fatalf("variable-length delay %v as long as the fixed default", iv.Dur())
		}
	}
}

func TestOnlineDecayReachesZero(t *testing.T) {
	// A near-miss pair that never manifests (target precedes delay-site
	// reversal is impossible because the dispose waits on the use): the
	// site's probability must decay to zero and injection must stop.
	body := func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("r")
		r.Init(root, "init0")
		var done sim.Event
		w := root.Spawn("w", func(th *sim.Thread) {
			th.Sleep(1 * sim.Millisecond)
			r.Use(th, "use")
			done.Set(th)
		})
		done.Wait(root)
		root.Sleep(1 * sim.Millisecond)
		r.Dispose(root, "disp")
		root.Join(w)
	}
	o := NewOnline(WaffleBasicConfig(Options{Decay: 0.5}))
	injected := 0
	for i := 0; i < 12; i++ {
		res := onlineRun(t, o, int64(i), body)
		if res.Fault != nil {
			t.Fatalf("impossible bug manifested: %v", res.Fault)
		}
		injected += o.Stats().Count
	}
	// With decay 0.5, at most ~2-3 productive injections then silence.
	if injected > 6 {
		t.Fatalf("injected %d delays despite rapid decay", injected)
	}
	last := 0
	for i := 0; i < 3; i++ {
		onlineRun(t, o, int64(100+i), body)
		last += o.Stats().Count
	}
	if last != 0 {
		t.Fatalf("still injecting after decay exhausted: %d", last)
	}
}

func TestOnlineHBInferenceRemovesTrulyOrderedPair(t *testing.T) {
	// The dispose genuinely waits for the use (Event): a delay at "use"
	// propagates to the disposing thread, so WaffleBasic's inference
	// should eventually remove the pair {use, disp}.
	body := func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("r")
		r.Init(root, "init0")
		var done sim.Event
		w := root.Spawn("w", func(th *sim.Thread) {
			th.Sleep(1 * sim.Millisecond)
			r.Use(th, "use")
			done.Set(th)
		})
		done.Wait(root)
		r.Dispose(root, "disp")
		root.Join(w)
	}
	o := NewOnline(WaffleBasicConfig(Options{}))
	for i := 0; i < 4; i++ {
		res := onlineRun(t, o, int64(i), body)
		if res.Fault != nil {
			t.Fatalf("impossible bug manifested: %v", res.Fault)
		}
	}
	for _, p := range o.Pairs() {
		if p.Delay == "use" && p.Target == "disp" {
			t.Fatalf("HB-ordered pair not removed after %d runs", o.Runs())
		}
	}
}

func TestOnlineInterferenceControlSerializesDelays(t *testing.T) {
	// Figure 4b shape online: same site in two threads. With online
	// interference control the self-edge forms after identification and
	// later runs never hold two "chk" delays concurrently.
	body := func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("r")
		r.Init(root, "init0")
		w := root.Spawn("w", func(th *sim.Thread) {
			th.Sleep(3 * sim.Millisecond)
			r.Use(th, "chk")
		})
		root.Sleep(4 * sim.Millisecond)
		if r.UseIfLive(root, "chk") {
			root.Sleep(500 * sim.Microsecond)
			r.Dispose(root, "disp")
		}
		root.Join(w)
	}
	o := NewOnline(NoPrepConfig(Options{}))
	for i := 0; i < 10; i++ {
		o.BeginRun()
		prog := &SimProgram{Label: "online", Body: body}
		prog.Execute(int64(i), o)
		ivs := o.Stats().Intervals
		for a := 0; a < len(ivs); a++ {
			for b := a + 1; b < len(ivs); b++ {
				if ivs[a].Site == "chk" && ivs[b].Site == "chk" &&
					ivs[a].Start < ivs[b].End && ivs[b].Start < ivs[a].End {
					t.Fatalf("run %d: two chk delays overlap: %+v %+v", i, ivs[a], ivs[b])
				}
			}
		}
	}
}

func TestOnlineIgnoresAPIKinds(t *testing.T) {
	o := NewOnline(WaffleBasicConfig(Options{}))
	onlineRun(t, o, 1, func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("dict")
		w := root.Spawn("w", func(th *sim.Thread) {
			th.Sleep(time1ms)
			r.APICall(th, "api2", true, 100*sim.Microsecond)
		})
		r.APICall(root, "api1", true, 100*sim.Microsecond)
		root.Join(w)
	})
	if n := len(o.Pairs()); n != 0 {
		t.Fatalf("API calls formed MemOrder pairs: %v", o.Pairs())
	}
}

const time1ms = 1 * sim.Millisecond

func TestAppendBounded(t *testing.T) {
	var h []histEv
	for i := 0; i < 10; i++ {
		h = appendBounded(h, histEv{t: sim.Time(i)}, 4)
	}
	if len(h) != 4 {
		t.Fatalf("len = %d, want 4", len(h))
	}
	if h[0].t != 6 || h[3].t != 9 {
		t.Fatalf("kept wrong window: %+v", h)
	}
}
