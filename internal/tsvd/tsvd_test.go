package tsvd

import (
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// dictRace: two threads hammer a shared dictionary through thread-unsafe
// API calls that naturally execute close together.
func dictRace(root *sim.Thread, h *memmodel.Heap) {
	dict := h.NewRef("dict")
	w := root.Spawn("writer", func(th *sim.Thread) {
		for i := 0; i < 5; i++ {
			dict.APICall(th, "w.go:10", true, 50*sim.Microsecond)
			th.Sleep(200 * sim.Microsecond)
		}
	})
	for i := 0; i < 5; i++ {
		dict.APICall(root, "r.go:20", false, 50*sim.Microsecond)
		root.Sleep(200 * sim.Microsecond)
	}
	root.Join(w)
}

func runOnce(t *testing.T, tool *Tool, seed int64, body func(*sim.Thread, *memmodel.Heap)) core.ExecResult {
	t.Helper()
	tool.BeginRun()
	prog := &core.SimProgram{Label: "tsvd", Body: body}
	return prog.Execute(seed, tool)
}

// sparseRace: exactly one near-miss write pair per run — no repeated
// hammering, so no same-run delays and no overlap-driven removals.
func sparseRace(root *sim.Thread, h *memmodel.Heap) {
	dict := h.NewRef("dict")
	w := root.Spawn("writer", func(th *sim.Thread) {
		th.Sleep(1 * sim.Millisecond)
		dict.APICall(th, "w.go:10", true, 50*sim.Microsecond)
	})
	dict.APICall(root, "r.go:20", true, 50*sim.Microsecond)
	root.Join(w)
}

func TestTSVDIdentifiesNearMissPairs(t *testing.T) {
	tool := New(Options{})
	runOnce(t, tool, 1, sparseRace)
	if tool.InstrumentationSiteCount() != 2 {
		t.Fatalf("instrumentation sites = %d, want 2", tool.InstrumentationSiteCount())
	}
	if tool.InjectionSiteCount() != 2 {
		t.Fatalf("injection sites = %d, want 2", tool.InjectionSiteCount())
	}
	pairs := tool.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestTSVDDenseHammeringTriggersRemovals(t *testing.T) {
	// Under dense same-object traffic, same-run delays overlap and the
	// happens-before inference removes pairs — the §4.1 unreliability that
	// motivates Waffle's redesign. Sites stay counted as injection sites.
	tool := New(Options{})
	runOnce(t, tool, 1, dictRace)
	if tool.InjectionSiteCount() != 2 {
		t.Fatalf("injection sites = %d, want 2", tool.InjectionSiteCount())
	}
	if n := len(tool.Pairs()); n != 0 {
		t.Fatalf("expected overlap-driven removal, %d pairs live", n)
	}
}

func TestTSVDIgnoresReadReadAndMemOrderKinds(t *testing.T) {
	tool := New(Options{})
	runOnce(t, tool, 1, func(root *sim.Thread, h *memmodel.Heap) {
		dict := h.NewRef("dict")
		obj := h.NewRef("obj")
		obj.Init(root, "mem.go:1") // MemOrder kind: invisible to TSVD
		w := root.Spawn("reader", func(th *sim.Thread) {
			dict.APICall(th, "r2.go:5", false, 50*sim.Microsecond)
			obj.Use(th, "mem.go:2")
		})
		dict.APICall(root, "r1.go:5", false, 50*sim.Microsecond)
		root.Join(w)
	})
	if n := len(tool.Pairs()); n != 0 {
		t.Fatalf("read/read pair admitted: %v", tool.Pairs())
	}
	if tool.InstrumentationSiteCount() != 2 {
		t.Fatalf("instr sites = %d (MemOrder sites leaked in?)", tool.InstrumentationSiteCount())
	}
}

func TestTSVDInjectsOnLaterOccurrences(t *testing.T) {
	tool := New(Options{})
	runOnce(t, tool, 1, dictRace)
	// The pair forms mid-run; later dynamic instances in the same run get
	// delays (the same-run philosophy, unlike Waffle).
	if tool.Stats().Count == 0 {
		t.Fatal("no delays injected in the identification run")
	}
	for _, iv := range tool.Stats().Intervals {
		if iv.Dur() != core.DefaultFixedDelay {
			t.Fatalf("delay = %v, want fixed", iv.Dur())
		}
	}
}

func TestTSVDExposesTSVUnderAsymmetricDelay(t *testing.T) {
	// Without delays, the writer's window misses the root's late API call
	// by ~1.5ms. When only the writer's site is delayed (+100ms), its
	// window lands on the root's late call at ~103ms: a TSV manifests.
	// Symmetric delays shift both threads equally and expose nothing —
	// the asymmetric combination arises over runs via probability decay.
	body := func(root *sim.Thread, h *memmodel.Heap) {
		dict := h.NewRef("dict")
		w := root.Spawn("w2", func(th *sim.Thread) {
			th.Sleep(2 * sim.Millisecond)
			dict.APICall(th, "b.go:2", true, 2*sim.Millisecond) // natural [2,4]
		})
		dict.APICall(root, "a.go:1", true, 1*sim.Millisecond) // natural [0,1]
		root.Sleep(101 * sim.Millisecond)
		dict.APICall(root, "late.go:9", true, 3*sim.Millisecond) // natural ~[102,105]
		root.Join(w)
	}
	tool := New(Options{})
	exposed := false
	for i := 0; i < 30 && !exposed; i++ {
		exposed = runOnce(t, tool, int64(i), body).TSVs > 0
	}
	if !exposed {
		t.Fatal("no TSV manifested in 30 runs")
	}
}

func TestTSVDDecayStopsInjection(t *testing.T) {
	tool := New(Options{Decay: 0.5})
	for i := 0; i < 10; i++ {
		runOnce(t, tool, int64(i), dictRace)
	}
	runOnce(t, tool, 99, dictRace)
	if got := tool.Stats().Count; got != 0 {
		t.Fatalf("still injecting after decay: %d", got)
	}
}

func TestTSVDOverlapLowOnSparseSites(t *testing.T) {
	// §3.3: TSVD's delay overlap stays low because thread-unsafe API call
	// sites are sparse. Two sites, delays mostly sequential.
	tool := New(Options{})
	var all []core.Interval
	for i := 0; i < 5; i++ {
		runOnce(t, tool, int64(i), dictRace)
		all = append(all, tool.Stats().Intervals...)
	}
	if len(all) == 0 {
		t.Skip("no delays to measure")
	}
}

func TestTSVDExposeDriver(t *testing.T) {
	// The asymmetric scenario from TestTSVDExposesTSVUnderAsymmetricDelay,
	// driven end-to-end through Expose.
	body := func(root *sim.Thread, h *memmodel.Heap) {
		dict := h.NewRef("dict")
		w := root.Spawn("w2", func(th *sim.Thread) {
			th.Sleep(2 * sim.Millisecond)
			dict.APICall(th, "b.go:2", true, 2*sim.Millisecond)
		})
		dict.APICall(root, "a.go:1", true, 1*sim.Millisecond)
		root.Sleep(101 * sim.Millisecond)
		dict.APICall(root, "late.go:9", true, 3*sim.Millisecond)
		root.Join(w)
	}
	prog := &core.SimProgram{Label: "tsvd-expose", Body: body}
	exp := New(Options{}).Expose(prog, 30, 1)
	if exp.Run == 0 {
		t.Fatal("Expose found no TSV in 30 runs")
	}
	if exp.TSVs == 0 {
		t.Fatal("exposure with zero TSVs")
	}
}

func TestTSVDExposeCleanProgramFindsNothing(t *testing.T) {
	prog := &core.SimProgram{Label: "clean", Body: func(root *sim.Thread, h *memmodel.Heap) {
		d := h.NewRef("dict")
		var m sim.Mutex
		w := root.Spawn("w", func(th *sim.Thread) {
			m.Lock(th)
			d.APICall(th, "locked2", true, 100*sim.Microsecond)
			m.Unlock(th)
		})
		m.Lock(root)
		d.APICall(root, "locked1", true, 100*sim.Microsecond)
		m.Unlock(root)
		root.Join(w)
	}}
	if exp := New(Options{}).Expose(prog, 10, 1); exp.Run != 0 {
		t.Fatalf("lock-protected program exposed a TSV: %+v", exp)
	}
}

// The tool satisfies the interfaces core.Session and the adaptive
// controller drive it through.
func TestToolInterfaces(t *testing.T) {
	var tool core.Tool = New(Options{})
	if tool.Name() != "tsvd" {
		t.Fatalf("Name() = %q", tool.Name())
	}
	if _, ok := tool.(core.SiteProber); !ok {
		t.Fatal("Tool does not implement core.SiteProber")
	}
}

// TestTSVDEdgeCases pins TSVD's behaviour where the pair rule differs from
// the MemOrder rule, and where its bookkeeping has no MemOrder analog.
func TestTSVDEdgeCases(t *testing.T) {
	noCost := Options{InstrCost: -1}
	// apiPair has thread w write at a when the run starts and root call
	// b, a write, after sleeping gap.
	apiPair := func(gap sim.Duration) func(*sim.Thread, *memmodel.Heap) {
		return func(root *sim.Thread, h *memmodel.Heap) {
			dict := h.NewRef("dict")
			w := root.Spawn("w", func(th *sim.Thread) { dict.APICall(th, "a", true, 0) })
			root.Sleep(gap)
			dict.APICall(root, "b", true, 0)
			root.Join(w)
		}
	}
	rows := []struct {
		name string
		test func(t *testing.T)
	}{
		{"gap exactly δ", func(t *testing.T) {
			// |gap| ≤ δ admits δ itself and nothing past it.
			for _, c := range []struct {
				gap   sim.Duration
				pairs int
			}{{core.DefaultWindow, 1}, {core.DefaultWindow + 1, 0}} {
				tool := New(noCost)
				runOnce(t, tool, 1, apiPair(c.gap))
				if n := len(tool.Pairs()); n != c.pairs {
					t.Fatalf("gap %v: %d pairs %v, want %d", c.gap, n, tool.Pairs(), c.pairs)
				}
			}
			// The MemOrder rule admits 0 ≤ gap < δ: δ itself is refused.
			for _, c := range []struct {
				gap   sim.Duration
				pairs int
			}{{core.DefaultWindow - 1, 1}, {core.DefaultWindow, 0}} {
				o := core.NewOnline(core.WaffleBasicConfig(core.Options{InstrCost: -1}))
				o.BeginRun()
				(&core.SimProgram{Body: func(root *sim.Thread, h *memmodel.Heap) {
					r := h.NewRef("r")
					w := root.Spawn("w", func(th *sim.Thread) { r.Init(th, "init") })
					root.Sleep(c.gap)
					r.UseIfLive(root, "use")
					root.Join(w)
				}}).Execute(1, o)
				if n := len(o.Pairs()); n != c.pairs {
					t.Fatalf("MemOrder rule at gap %v: %d pairs %v, want %d", c.gap, n, o.Pairs(), c.pairs)
				}
			}
		}},
		{"HB removal silences both sites", func(t *testing.T) {
			// w delays at a while root waits for it, so root is silent
			// through a's whole delay and then reaches b: the inference
			// removes {a,b}, and neither end delays again.
			tool := New(Options{InstrCost: -1, FixedDelay: 10 * sim.Millisecond})
			body := func(root *sim.Thread, h *memmodel.Heap) {
				dict, other := h.NewRef("dict"), h.NewRef("other")
				var done sim.Event
				w := root.Spawn("w", func(th *sim.Thread) {
					th.Sleep(sim.Millisecond)
					dict.APICall(th, "a", true, 0)
					done.Set(th)
				})
				other.APICall(root, "pre", false, 0)
				done.Wait(root)
				dict.APICall(root, "b", true, 0)
				root.Join(w)
			}
			runOnce(t, tool, 1, body)
			if got := tool.Pairs(); len(got) != 1 || tool.LiveSites() != 2 {
				t.Fatalf("identification run: pairs %v, %d live sites; want {a,b} live at both ends", got, tool.LiveSites())
			}
			runOnce(t, tool, 2, body)
			if n := tool.Stats().Count; n != 2 {
				t.Fatalf("removal run injected %d delays, want 2 (a, then b)", n)
			}
			if got := tool.Pairs(); len(got) != 0 || tool.LiveSites() != 0 {
				t.Fatalf("after the inference: pairs %v, %d live sites; want none", got, tool.LiveSites())
			}
			if n := tool.InjectionSiteCount(); n != 2 {
				t.Fatalf("injection sites = %d, want 2: removal forgets no site", n)
			}
			runOnce(t, tool, 3, body)
			if n := tool.Stats().Count; n != 0 {
				t.Fatalf("%d delays after the pair was removed", n)
			}
		}},
		{"self pair", func(t *testing.T) {
			// Two threads call the same site: {s,s} is one pair, one
			// injection site and one candidate.
			tool := New(noCost)
			body := func(root *sim.Thread, h *memmodel.Heap) {
				dict := h.NewRef("dict")
				w := root.Spawn("w", func(th *sim.Thread) { dict.APICall(th, "s", true, 0) })
				root.Sleep(sim.Millisecond)
				dict.APICall(root, "s", true, 0)
				root.Join(w)
			}
			runOnce(t, tool, 1, body)
			if got := tool.Pairs(); len(got) != 1 || got[0] != [2]trace.SiteID{"s", "s"} {
				t.Fatalf("pairs = %v, want [[s s]]", got)
			}
			if c := tool.Candidates("s"); len(c) != 1 || c[0] != (core.Pair{Delay: "s", Target: "s"}) {
				t.Fatalf("candidates at s = %+v, want the one self pair", c)
			}
			if tool.InjectionSiteCount() != 1 || tool.LiveSites() != 1 {
				t.Fatalf("%d injection sites, %d live; want 1 and 1", tool.InjectionSiteCount(), tool.LiveSites())
			}
			runOnce(t, tool, 2, body)
			st := tool.Stats()
			if st.Count == 0 {
				t.Fatal("the self pair never delayed")
			}
			for _, iv := range st.Intervals {
				if iv.Site != "s" {
					t.Fatalf("delay at %s, want only s", iv.Site)
				}
			}
		}},
		{"MemOrder accesses are invisible", func(t *testing.T) {
			// At the default instrumentation cost, a body of MemOrder
			// accesses runs as long as it does uninstrumented.
			memOnly := &core.SimProgram{Body: func(root *sim.Thread, h *memmodel.Heap) {
				r := h.NewRef("r")
				r.Init(root, "init")
				r.Use(root, "use")
				r.Dispose(root, "disp")
			}}
			tool := New(Options{})
			tool.BeginRun()
			if got, want := memOnly.Execute(1, tool).End, memOnly.Execute(1, nil).End; got != want {
				t.Fatalf("MemOrder-only run ended at %v under TSVD, %v uninstrumented", got, want)
			}
			if n := tool.InstrumentationSiteCount(); n != 0 {
				t.Fatalf("%d instrumentation sites, want 0", n)
			}
			// More MemOrder accesses than the history holds, between two
			// API calls on the same object, push nothing out of it.
			tool = New(noCost)
			runOnce(t, tool, 1, func(root *sim.Thread, h *memmodel.Heap) {
				dict := h.NewRef("dict")
				w := root.Spawn("w", func(th *sim.Thread) { dict.APICall(th, "a", true, 0) })
				root.Sleep(sim.Millisecond)
				dict.Init(root, "init")
				for i := 0; i < 2*core.DefaultHistoryDepth; i++ {
					dict.Use(root, "use")
				}
				dict.APICall(root, "b", true, 0)
				root.Join(w)
			})
			if got := tool.Pairs(); len(got) != 1 || got[0] != [2]trace.SiteID{"a", "b"} {
				t.Fatalf("pairs = %v, want [[a b]]", got)
			}
		}},
		{"not retunable", func(t *testing.T) {
			// The adaptive controller retunes only core.Retunable tools;
			// TSVD sessions keep their options.
			if _, ok := any(New(Options{})).(core.Retunable); ok {
				t.Fatal("tsvd.Tool implements core.Retunable")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.test)
	}
}
