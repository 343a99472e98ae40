package tsvd

import (
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
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
	var heap *memmodel.Heap
	body := func(root *sim.Thread, h *memmodel.Heap) {
		heap = h
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
		runOnce(t, tool, int64(i), body)
		exposed = len(heap.TSVs()) > 0
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
