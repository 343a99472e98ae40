package memmodel

import (
	"errors"
	"testing"
	"testing/quick"

	"waffle/internal/sim"
	"waffle/internal/trace"
)

// run executes body in a fresh world and returns the run error.
func run(seed int64, body func(*sim.Thread, *Heap)) error {
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: seed})
	return w.Run(func(root *sim.Thread) { body(root, h) })
}

func nullRefOf(t *testing.T, err error) *NullRefError {
	t.Helper()
	var f *sim.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	var nre *NullRefError
	if !errors.As(f.Err, &nre) {
		t.Fatalf("fault err = %v, want NullRefError", f.Err)
	}
	return nre
}

func TestLifecycleHappyPath(t *testing.T) {
	err := run(1, func(th *sim.Thread, h *Heap) {
		r := h.NewRef("conn")
		if r.State() != StateNil || r.IsLive() {
			t.Errorf("fresh ref state = %v", r.State())
		}
		r.Init(th, "a.go:1")
		if !r.IsLive() {
			t.Error("not live after Init")
		}
		r.Use(th, "a.go:2")
		r.Use(th, "a.go:3")
		r.Dispose(th, "a.go:4")
		if r.State() != StateDisposed {
			t.Errorf("state after Dispose = %v", r.State())
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestUseBeforeInitFaults(t *testing.T) {
	err := run(1, func(th *sim.Thread, h *Heap) {
		r := h.NewRef("lstnr")
		r.Use(th, "a.go:8")
	})
	nre := nullRefOf(t, err)
	if nre.State != StateNil || nre.Kind != trace.KindUse || nre.Site != "a.go:8" {
		t.Fatalf("fault = %+v", nre)
	}
}

func TestUseAfterDisposeFaults(t *testing.T) {
	err := run(1, func(th *sim.Thread, h *Heap) {
		r := h.NewRef("m_poller")
		r.Init(th, "a.go:1")
		r.Dispose(th, "a.go:2")
		r.Use(th, "a.go:3")
	})
	nre := nullRefOf(t, err)
	if nre.State != StateDisposed {
		t.Fatalf("fault state = %v, want disposed", nre.State)
	}
}

func TestDoubleDisposeFaults(t *testing.T) {
	err := run(1, func(th *sim.Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(th, "a.go:1")
		r.Dispose(th, "a.go:2")
		r.Dispose(th, "a.go:3")
	})
	nre := nullRefOf(t, err)
	if nre.Kind != trace.KindDispose {
		t.Fatalf("fault kind = %v", nre.Kind)
	}
}

func TestReinitAfterDisposeAllowed(t *testing.T) {
	err := run(1, func(th *sim.Thread, h *Heap) {
		r := h.NewRef("r")
		r.Init(th, "a.go:1")
		r.Dispose(th, "a.go:2")
		r.Init(th, "a.go:3") // reassignment
		r.Use(th, "a.go:4")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestUseIfLiveNeverFaults(t *testing.T) {
	err := run(1, func(th *sim.Thread, h *Heap) {
		r := h.NewRef("r")
		if r.UseIfLive(th, "a.go:1") {
			t.Error("UseIfLive true on nil ref")
		}
		r.Init(th, "a.go:2")
		if !r.UseIfLive(th, "a.go:3") {
			t.Error("UseIfLive false on live ref")
		}
		r.Dispose(th, "a.go:4")
		if r.UseIfLive(th, "a.go:5") {
			t.Error("UseIfLive true on disposed ref")
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestHookSeesEveryAccessInOrder(t *testing.T) {
	var got []trace.Kind
	var sites []trace.SiteID
	h := NewHeap()
	h.SetHook(HookFunc(func(_ *sim.Thread, site trace.SiteID, _ trace.ObjID, kind trace.Kind, _ sim.Duration) {
		got = append(got, kind)
		sites = append(sites, site)
	}))
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(th *sim.Thread) {
		r := h.NewRef("r")
		r.Init(th, "s1")
		r.Use(th, "s2")
		r.APICall(th, "s3", true, 10*sim.Microsecond)
		r.Dispose(th, "s4")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []trace.Kind{trace.KindInit, trace.KindUse, trace.KindAPIWrite, trace.KindDispose}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %v, want %v (sites %v)", i, got[i], want[i], sites)
		}
	}
}

func TestHookDelayChangesOutcome(t *testing.T) {
	// The whole premise of active delay injection: a delay inserted by the
	// hook before the init flips a racy init/use pair into a fault.
	build := func(h *Heap) func(*sim.Thread) {
		return func(root *sim.Thread) {
			r := h.NewRef("obj")
			worker := root.Spawn("user", func(c *sim.Thread) {
				c.Sleep(2 * sim.Millisecond) // use naturally 2ms after spawn
				r.Use(c, "use-site")
			})
			root.Sleep(1 * sim.Millisecond) // init naturally at 1ms: init wins
			r.Init(root, "init-site")
			root.Join(worker)
		}
	}

	// Without a hook, no fault.
	h1 := NewHeap()
	w1 := sim.NewWorld(sim.Config{Seed: 1})
	if err := w1.Run(build(h1)); err != nil {
		t.Fatalf("delay-free run faulted: %v", err)
	}

	// With a 5ms delay before the init site, the use runs first: fault.
	h2 := NewHeap()
	h2.SetHook(HookFunc(func(th *sim.Thread, site trace.SiteID, _ trace.ObjID, kind trace.Kind, _ sim.Duration) {
		if site == "init-site" && kind == trace.KindInit {
			th.Sleep(5 * sim.Millisecond)
		}
	}))
	w2 := sim.NewWorld(sim.Config{Seed: 1})
	err := w2.Run(build(h2))
	nre := nullRefOf(t, err)
	if nre.Site != "use-site" {
		t.Fatalf("fault at %s, want use-site", nre.Site)
	}
}

func TestMultiHookOrder(t *testing.T) {
	// MultiHook.OnAccess must invoke its hooks in slice order, every one
	// exactly once per access, including the degenerate empty and
	// single-element forms.
	cases := []struct {
		name  string
		hooks []string
	}{
		{"empty", nil},
		{"single", []string{"only"}},
		{"pair", []string{"first", "second"}},
		{"triple", []string{"first", "second", "third"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var order []string
			mh := make(MultiHook, 0, len(tc.hooks))
			for _, name := range tc.hooks {
				name := name
				mh = append(mh, HookFunc(func(*sim.Thread, trace.SiteID, trace.ObjID, trace.Kind, sim.Duration) {
					order = append(order, name)
				}))
			}
			h := NewHeap()
			h.SetHook(mh)
			w := sim.NewWorld(sim.Config{Seed: 1})
			err := w.Run(func(th *sim.Thread) {
				r := h.NewRef("r")
				r.Init(th, "s")
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(order) != len(tc.hooks) {
				t.Fatalf("hooks fired %d times, want %d (%v)", len(order), len(tc.hooks), order)
			}
			for i, name := range tc.hooks {
				if order[i] != name {
					t.Fatalf("order = %v, want %v", order, tc.hooks)
				}
			}
		})
	}
}

func TestSetHookAfterAccessPanics(t *testing.T) {
	// The hook is part of a run's deterministic identity: installing one
	// after accesses were already performed un-instrumented would make the
	// trace and the schedule disagree, so SetHook must refuse.
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: 1})
	if err := w.Run(func(th *sim.Thread) {
		h.NewRef("r").Init(th, "s")
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetHook after the first access did not panic")
		}
	}()
	h.SetHook(HookFunc(func(*sim.Thread, trace.SiteID, trace.ObjID, trace.Kind, sim.Duration) {}))
}

func TestTSVDetectedOnOverlappingWrites(t *testing.T) {
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(root *sim.Thread) {
		r := h.NewRef("dict")
		c := root.Spawn("writer2", func(th *sim.Thread) {
			th.Sleep(50 * sim.Microsecond) // lands inside root's 200µs window
			r.APICall(th, "w2", true, 200*sim.Microsecond)
		})
		r.APICall(root, "w1", true, 200*sim.Microsecond)
		root.Join(c)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(h.TSVs()) == 0 {
		t.Fatal("overlapping writes produced no TSV")
	}
	tsv := h.TSVs()[0]
	if tsv.TID1 == tsv.TID2 {
		t.Fatalf("TSV within one thread: %+v", tsv)
	}
}

func TestNoTSVOnReadRead(t *testing.T) {
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(root *sim.Thread) {
		r := h.NewRef("dict")
		c := root.Spawn("reader2", func(th *sim.Thread) {
			r.APICall(th, "r2", false, 200*sim.Microsecond)
		})
		r.APICall(root, "r1", false, 200*sim.Microsecond)
		root.Join(c)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(h.TSVs()) != 0 {
		t.Fatalf("read/read overlap produced TSVs: %v", h.TSVs())
	}
}

func TestNoTSVWhenDisjoint(t *testing.T) {
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(root *sim.Thread) {
		r := h.NewRef("dict")
		c := root.Spawn("writer2", func(th *sim.Thread) {
			th.Sleep(5 * sim.Millisecond) // far after root's window
			r.APICall(th, "w2", true, 100*sim.Microsecond)
		})
		r.APICall(root, "w1", true, 100*sim.Microsecond)
		root.Join(c)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(h.TSVs()) != 0 {
		t.Fatalf("disjoint windows produced TSVs: %v", h.TSVs())
	}
}

func TestOpCostAdvancesTime(t *testing.T) {
	h := NewHeap()
	h.SetOpCost(10 * sim.Microsecond)
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(th *sim.Thread) {
		r := h.NewRef("r")
		r.Init(th, "s1")
		r.Use(th, "s2")
		r.Dispose(th, "s3")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := w.Now(), sim.Time(30*sim.Microsecond); got != want {
		t.Fatalf("time = %v, want %v", got, want)
	}
}

func TestRefIDsUnique(t *testing.T) {
	h := NewHeap()
	seen := map[trace.ObjID]bool{}
	for i := 0; i < 100; i++ {
		r := h.NewRef("x")
		if seen[r.ID()] {
			t.Fatalf("duplicate id %d", r.ID())
		}
		seen[r.ID()] = true
	}
}

// Property: a single-threaded random operation sequence faults exactly when
// the naive state machine says it should.
func TestLifecycleStateMachineProperty(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		state := StateNil
		wantFault := false
		for _, op := range ops {
			switch op % 3 {
			case 0: // init
				state = StateLive
			case 1: // use
				if state != StateLive {
					wantFault = true
				}
			case 2: // dispose
				if state != StateLive {
					wantFault = true
				} else {
					state = StateDisposed
				}
			}
			if wantFault {
				break
			}
		}
		runErr := run(9, func(th *sim.Thread, h *Heap) {
			r := h.NewRef("r")
			for _, op := range ops {
				switch op % 3 {
				case 0:
					r.Init(th, "s")
				case 1:
					r.Use(th, "s")
				case 2:
					r.Dispose(th, "s")
				}
			}
		})
		gotFault := runErr != nil
		return gotFault == wantFault
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeapCensus(t *testing.T) {
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(th *sim.Thread) {
		a := h.NewRef("a")
		b := h.NewRef("b")
		_ = h.NewRef("c") // never initialized
		a.Init(th, "s1")
		b.Init(th, "s2")
		b.Dispose(th, "s3")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	c := h.Census()
	if c.Allocated != 3 || c.Nil != 1 || c.Live != 1 || c.Disposed != 1 {
		t.Fatalf("census = %+v", c)
	}
}

// TestOpLabelLastAnnouncementWins pins how an access's op label and an
// explicit SetOp interleave: whichever came last is the thread's op, in
// Thread.Op, Fault.Op, Fault.Stacks and ThreadInfo.LastOp alike. The
// TaskPool ("task <name>") and deadlock-probe labels rely on this order.
func TestOpLabelLastAnnouncementWins(t *testing.T) {
	h := NewHeap()
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(root *sim.Thread) {
		r := h.NewRef("conn")
		root.SetOp("probe")
		r.Init(root, "a.go:1")
		if got, want := root.Op(), "init conn @ a.go:1"; got != want {
			t.Errorf("access after SetOp: Op() = %q, want %q", got, want)
		}
		r.Use(root, "a.go:2")
		root.SetOp("task flush")
		if got, want := root.Op(), "task flush"; got != want {
			t.Errorf("SetOp after access: Op() = %q, want %q", got, want)
		}
		root.Spawn("setop-last", func(c *sim.Thread) {
			r.Use(c, "b.go:1")
			c.SetOp("parked")
			c.Sleep(sim.Second)
		})
		root.Spawn("access-last", func(c *sim.Thread) {
			c.SetOp("parked")
			r.UseIfLive(c, "c.go:1")
			c.Sleep(sim.Second)
		})
		root.Sleep(100 * sim.Microsecond)
		r.Dispose(root, "a.go:3")
		r.Use(root, "a.go:4")
	})
	var f *sim.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if got, want := f.Op, "use conn @ a.go:4"; got != want {
		t.Errorf("Fault.Op = %q, want %q", got, want)
	}
	wantStacks := []string{
		"thread 1 (main) @ use conn @ a.go:4",
		"thread 2 (setop-last) @ parked",
		"thread 3 (access-last) @ use conn @ c.go:1",
	}
	if len(f.Stacks) != len(wantStacks) {
		t.Fatalf("Fault.Stacks = %q, want %q", f.Stacks, wantStacks)
	}
	for i := range wantStacks {
		if f.Stacks[i] != wantStacks[i] {
			t.Errorf("Fault.Stacks[%d] = %q, want %q", i, f.Stacks[i], wantStacks[i])
		}
	}
	wantLast := []string{"use conn @ a.go:4", "parked", "use conn @ c.go:1"}
	infos := w.Threads()
	for i, ti := range infos {
		if ti.LastOp != wantLast[i] {
			t.Errorf("ThreadInfo[%d].LastOp = %q, want %q", i, ti.LastOp, wantLast[i])
		}
	}
}
