package vclock

import (
	"slices"
	"testing"
	"testing/quick"

	"waffle/internal/sim"
)

// runWorld executes main in a fresh world with a root clock attached and
// fails the test on any run error.
func runWorld(t *testing.T, seed int64, main func(*sim.Thread)) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: seed})
	err := w.Run(func(root *sim.Thread) {
		Attach(root)
		main(root)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestParentBeforeForkOrderedWithChild(t *testing.T) {
	runWorld(t, 1, func(root *sim.Thread) {
		before := Of(root) // parent clock before fork
		var childClock *Clock
		c := root.Spawn("child", func(c *sim.Thread) {
			childClock = Of(c)
		})
		root.Join(c)
		if !before.Leq(childClock) {
			t.Errorf("pre-fork parent %v not ≤ child %v", before, childClock)
		}
		if !Ordered(before, childClock) {
			t.Error("pre-fork parent and child report concurrent")
		}
	})
}

func TestParentAfterForkConcurrentWithChild(t *testing.T) {
	runWorld(t, 1, func(root *sim.Thread) {
		var childClock *Clock
		c := root.Spawn("child", func(c *sim.Thread) {
			childClock = Of(c)
		})
		after := Of(root) // parent clock after fork: own counter bumped
		root.Join(c)
		if Ordered(after, childClock) {
			t.Errorf("post-fork parent %v ordered with child %v", after, childClock)
		}
	})
}

func TestSiblingsConcurrent(t *testing.T) {
	runWorld(t, 1, func(root *sim.Thread) {
		var c1Clock, c2Clock *Clock
		c1 := root.Spawn("c1", func(c *sim.Thread) { c1Clock = Of(c) })
		c2 := root.Spawn("c2", func(c *sim.Thread) { c2Clock = Of(c) })
		root.Join(c1)
		root.Join(c2)
		if Ordered(c1Clock, c2Clock) {
			t.Errorf("siblings ordered: %v vs %v", c1Clock, c2Clock)
		}
	})
}

func TestGrandchildInheritsAncestry(t *testing.T) {
	runWorld(t, 1, func(root *sim.Thread) {
		rootPre := Of(root)
		var grandClock *Clock
		c := root.Spawn("child", func(c *sim.Thread) {
			childPre := Of(c)
			g := c.Spawn("grandchild", func(g *sim.Thread) {
				grandClock = Of(g)
			})
			c.Join(g)
			if !childPre.Leq(grandClock) {
				t.Errorf("child pre-fork %v not ≤ grandchild %v", childPre, grandClock)
			}
		})
		root.Join(c)
		if !rootPre.Leq(grandClock) {
			t.Errorf("root pre-fork %v not ≤ grandchild %v", rootPre, grandClock)
		}
	})
}

func TestJoinDoesNotOrder(t *testing.T) {
	// Waffle tracks only fork edges; a child's final clock stays concurrent
	// with parent events after Join. This is the deliberate partial
	// analysis of Table 1.
	runWorld(t, 1, func(root *sim.Thread) {
		var childClock *Clock
		c := root.Spawn("child", func(c *sim.Thread) { childClock = Of(c) })
		root.Join(c)
		after := Of(root)
		if childClock.Leq(after) {
			t.Errorf("join created an edge: child %v ≤ parent %v", childClock, after)
		}
	})
}

func TestOfWithoutAttachIsNil(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	err := w.Run(func(root *sim.Thread) {
		if Of(root) != nil {
			t.Error("Of on unattached thread != nil")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNilClockComparisons(t *testing.T) {
	c := FromSnapshot(1, []Entry{{TID: 1, Counter: 1}})
	if Ordered(nil, c) || Ordered(c, nil) || Ordered(nil, nil) {
		t.Error("nil clocks must compare unordered")
	}
	if !Concurrent(nil, c) {
		t.Error("Concurrent(nil, c) = false")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	runWorld(t, 1, func(root *sim.Thread) {
		var clk *Clock
		c := root.Spawn("c", func(c *sim.Thread) {
			g := c.Spawn("g", func(*sim.Thread) {})
			c.Join(g)
			clk = Of(c)
		})
		root.Join(c)
		snap := clk.Snapshot()
		back := FromSnapshot(clk.Owner(), snap)
		if !clk.Leq(back) || !back.Leq(clk) {
			t.Errorf("round trip changed clock: %v vs %v", clk, back)
		}
		for i := 1; i < len(snap); i++ {
			if snap[i-1].TID >= snap[i].TID {
				t.Errorf("snapshot not sorted: %v", snap)
			}
		}
	})
}

func TestStringRendering(t *testing.T) {
	c := FromSnapshot(2, []Entry{{TID: 2, Counter: 3}, {TID: 1, Counter: 5}})
	if got, want := c.String(), "{1:5, 2:3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	var nilClock *Clock
	if nilClock.String() != "{}" {
		t.Errorf("nil String = %q", nilClock.String())
	}
}

// buildForkTree spawns a deterministic tree of threads (shape driven by
// spec) and returns every (clock, forkOrderIndex, ancestorSet) triple.
type clockSample struct {
	clock     *Clock
	ancestors map[int]bool // thread ids on the spawn path, self included
	tid       int
}

func gatherTree(t *testing.T, seed int64, fanout, depth int) []clockSample {
	t.Helper()
	var samples []clockSample
	w := sim.NewWorld(sim.Config{Seed: seed})
	var build func(th *sim.Thread, anc map[int]bool, d int)
	build = func(th *sim.Thread, anc map[int]bool, d int) {
		mine := make(map[int]bool, len(anc)+1)
		for k := range anc {
			mine[k] = true
		}
		mine[th.ID()] = true
		samples = append(samples, clockSample{clock: Of(th), ancestors: mine, tid: th.ID()})
		if d == 0 {
			return
		}
		for i := 0; i < fanout; i++ {
			c := th.Spawn("n", func(c *sim.Thread) { build(c, mine, d-1) })
			th.Join(c)
		}
	}
	err := w.Run(func(root *sim.Thread) {
		Attach(root)
		build(root, nil, depth)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return samples
}

// Property: for thread-creation clocks in a fork tree, sample A is ≤ sample
// B exactly when A's thread is an ancestor of (or equal to) B's thread.
// (Creation clocks are taken before any further forks by that thread, so
// ancestor-creation ≤ descendant-creation must hold, and nothing else.)
func TestForkTreeOrderMatchesAncestryProperty(t *testing.T) {
	err := quick.Check(func(rawSeed uint16, rawFan, rawDepth uint8) bool {
		fanout := 1 + int(rawFan)%3
		depth := 1 + int(rawDepth)%3
		samples := gatherTree(t, int64(rawSeed), fanout, depth)
		for _, a := range samples {
			for _, b := range samples {
				if a.tid == b.tid {
					continue
				}
				ordered := a.clock.Leq(b.clock)
				isAncestor := b.ancestors[a.tid]
				if ordered != isAncestor {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Leq is reflexive and antisymmetric on distinct tree clocks.
func TestLeqPartialOrderProperty(t *testing.T) {
	samples := gatherTree(t, 7, 2, 3)
	for _, a := range samples {
		if !a.clock.Leq(a.clock) {
			t.Fatalf("Leq not reflexive for %v", a.clock)
		}
	}
	for _, a := range samples {
		for _, b := range samples {
			if a.tid != b.tid && a.clock.Leq(b.clock) && b.clock.Leq(a.clock) {
				t.Fatalf("antisymmetry violated: %v and %v", a.clock, b.clock)
			}
		}
	}
	// Transitivity.
	for _, a := range samples {
		for _, b := range samples {
			for _, c := range samples {
				if a.clock.Leq(b.clock) && b.clock.Leq(c.clock) && !a.clock.Leq(c.clock) {
					t.Fatalf("transitivity violated: %v ≤ %v ≤ %v", a.clock, b.clock, c.clock)
				}
			}
		}
	}
}

// TestClockMatchesMapModel checks the TID-sorted tuple slice against the
// map semantics clocks are defined by: tuples may come in any order, the
// last of several with one TID counts, and an absent component reads 0.
// Snapshots, comparisons, joins and forks must agree with the model on
// arbitrary tuples, including duplicate TIDs and non-positive counters.
func TestClockMatchesMapModel(t *testing.T) {
	type model map[int]int64
	build := func(raw []int8) ([]Entry, model) {
		var entries []Entry
		m := model{}
		for i := 0; i+1 < len(raw); i += 2 {
			e := Entry{TID: int(raw[i]) % 8, Counter: int64(raw[i+1]) % 4}
			entries = append(entries, e)
			m[e.TID] = e.Counter
		}
		return entries, m
	}
	snapshot := func(m model) []Entry {
		out := make([]Entry, 0, len(m))
		for tid, c := range m {
			out = append(out, Entry{TID: tid, Counter: c})
		}
		slices.SortFunc(out, func(a, b Entry) int { return a.TID - b.TID })
		return out
	}
	leq := func(a, b model) bool {
		for tid, v := range a {
			if v > b[tid] {
				return false
			}
		}
		return true
	}
	join := func(a, b model) model {
		out := model{}
		for tid, v := range a {
			out[tid] = v
		}
		for tid, v := range b {
			if v > out[tid] {
				out[tid] = v
			}
		}
		return out
	}
	with := func(m model, tid int, c int64) model {
		out := join(m, nil)
		out[tid] = c
		return out
	}
	const own, childID = 3, 9
	check := func(ra, rb []int8) bool {
		ea, ma := build(ra)
		eb, mb := build(rb)
		a, b := FromSnapshot(own, ea), FromSnapshot(own, eb)
		child, advanced := Fork(a, childID)
		ok := slices.Equal(a.Snapshot(), snapshot(ma)) &&
			a.Len() == len(ma) &&
			a.Leq(b) == leq(ma, mb) &&
			Equal(a, b) == slices.Equal(snapshot(ma), snapshot(mb)) &&
			slices.Equal(Join(a, b).Snapshot(), snapshot(join(ma, mb))) &&
			slices.Equal(child.Snapshot(), snapshot(with(ma, childID, 1))) &&
			slices.Equal(advanced.Snapshot(), snapshot(with(ma, own, ma[own]+1)))
		for tid := -8; tid <= 8; tid++ {
			ok = ok && a.Get(tid) == ma[tid]
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
