package memmodel

import (
	"fmt"
	"reflect"
	"testing"

	"waffle/internal/sim"
)

// heapOutcome is everything a heap shows after a run: its census, its
// TSVs, each cell's id, name, state and store buffer length, the run's
// end, and the fault text (a stale read names its drawn commit time).
type heapOutcome struct {
	census Census
	tsvs   []TSV
	cells  []string
	end    sim.Time
	err    string
}

// freshHeap is NewHeap on memory no heap has used.
func freshHeap() *Heap {
	m := heapMems.New().(*heapMem)
	return &Heap{opCost: DefaultOpCost, active: m.active, mem: m}
}

// heapRun runs body over h in a world seeded with seed, under TSO when
// tso is set, and reports what the heap shows afterwards.
func heapRun(h *Heap, seed int64, tso bool, body func(*sim.Thread, *Heap)) heapOutcome {
	if tso {
		h.EnableTSO(TSOConfig{Seed: seed})
	}
	w := sim.NewWorld(sim.Config{Seed: seed})
	err := w.Run(func(root *sim.Thread) { body(root, h) })
	o := heapOutcome{census: h.Census(), tsvs: h.TSVs(), end: w.Now()}
	for _, r := range h.refs {
		o.cells = append(o.cells, fmt.Sprintf("%d %s %v %d", r.id, r.name, r.state, len(r.pending)))
	}
	if err != nil {
		o.err = err.Error()
	}
	w.Release()
	return o
}

// dirtyBody leaves a heap with live, disposed and buffered cells, API
// windows, TSVs and per-thread drain deadlines, cut short by a fault.
func dirtyBody(root *sim.Thread, h *Heap) {
	refs := make([]*Ref, 12)
	for i := range refs {
		refs[i] = h.NewRef(fmt.Sprintf("dirty%d", i))
		refs[i].Init(root, "dirty.init")
	}
	refs[1].Dispose(root, "dirty.dispose")
	for i := 0; i < 3; i++ {
		root.Spawn("api", func(t *sim.Thread) {
			refs[2].APICall(t, "dirty.api", true, 50*sim.Microsecond)
		})
	}
	root.Sleep(sim.Microsecond)
	AddFlushDelay(root, sim.Second)
	refs[3].Dispose(root, "dirty.buffered")
	refs[4].Init(root, "dirty.buffered")
	refs[0].Dispose(root, "dirty.dispose")
	refs[0].Use(root, "dirty.fault")
}

// probeBody draws flush latencies, races two API writers and ends in a
// stale read under TSO.
func probeBody(root *sim.Thread, h *Heap) {
	a, b := h.NewRef("a"), h.NewRef("b")
	if a.State() != StateNil || len(a.pending) != 0 || len(h.TSVs()) != 0 {
		root.Throw(fmt.Errorf("a fresh heap shows state %v, %d buffered stores, %d TSVs", a.State(), len(a.pending), len(h.TSVs())))
	}
	a.Init(root, "probe.init")
	root.Spawn("writer", func(t *sim.Thread) {
		b.APICall(t, "probe.api2", true, 40*sim.Microsecond)
	})
	b.APICall(root, "probe.api1", true, 40*sim.Microsecond)
	root.Sleep(sim.Millisecond)
	AddFlushDelay(root, sim.Millisecond)
	a.Dispose(root, "probe.dispose")
	root.Spawn("reader", func(t *sim.Thread) { a.UseFresh(t, "probe.read") })
	root.Sleep(2 * sim.Millisecond)
}

// TestReleasedHeapReuseIsInvisible runs a probe on memory no heap has
// used and again right after a released dirty heap, whose cells, store
// buffers, API windows, TSV list, TSO state and generator the second
// heap takes over. Both runs must show the same heap and fault.
func TestReleasedHeapReuseIsInvisible(t *testing.T) {
	reused := 0
	for seed := int64(1); seed <= 10; seed++ {
		for _, tso := range []bool{false, true} {
			want := heapRun(freshHeap(), seed, tso, probeBody)
			d := NewHeap()
			heapRun(d, seed+100, true, dirtyBody)
			old := map[*Ref]bool{}
			for _, r := range d.refs {
				old[r] = true
			}
			d.Release()
			h := NewHeap()
			got := heapRun(h, seed, tso, probeBody)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, tso %v: after a released heap the run shows\n%+v\nwant\n%+v", seed, tso, got, want)
			}
			if old[h.refs[0]] {
				reused++
			}
			h.Release()
		}
	}
	// Under -race sync.Pool drops a quarter of its Puts, so demand reuse
	// once, not every time.
	if reused == 0 {
		t.Fatal("no heap reused a released heap's cells")
	}
}

func TestHeapReleaseTwicePanics(t *testing.T) {
	h := NewHeap()
	h.EnableTSO(TSOConfig{Seed: 1})
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	h.Release()
}
