package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// outcome is everything a run shows its owner: the thread snapshots, the
// end time, how it ended and the fault's stacks.
type outcome struct {
	threads []ThreadInfo
	end     Time
	err     string
	stacks  []string
}

func outcomeOf(w *World, err error) outcome {
	o := outcome{threads: w.Threads(), end: w.Now()}
	if err != nil {
		o.err = err.Error()
	}
	if f := w.Fault(); f != nil {
		o.stacks = f.Stacks
	}
	return o
}

// freshWorld is NewWorld on memory no world has used.
func freshWorld(cfg Config) *World {
	m := worldMems.New().(*worldMem)
	return &World{cfg: cfg, rng: NewRand(cfg.Seed), toRun: m.toRun, mem: m}
}

// dirtyWorld runs a world that leaves behind everything reuse must scrub:
// threads with TLS, operation labels and joiners, threads blocked on a
// primitive, entries in the event queue, and a fault.
func dirtyWorld(seed int64) *World {
	w := NewWorld(Config{Seed: seed, Jitter: 0.1})
	w.Run(func(main *Thread) {
		main.SetTLS("dirty", seed)
		main.SetOp("dirty-main")
		var ev Event
		var kids []*Thread
		for i := 0; i < 6; i++ {
			kids = append(kids, main.Spawn("dirty", func(t *Thread) {
				t.SetTLS("dirty-kid", i)
				t.SetAccessOp("use", "x", "dirty.go:1")
				if i%2 == 0 {
					ev.Wait(t)
				}
				t.Sleep(Second)
			}))
		}
		main.Spawn("joiner", func(t *Thread) { t.Join(kids[0]) })
		main.Sleep(Millisecond)
		main.Throw(errors.New("dirty"))
	})
	return w
}

// probe runs a world whose threads first check that they start clean, then
// lock, sleep with jitter, join and, at odd seeds, fault with threads
// blocked.
func probe(w *World, seed int64) outcome {
	check := func(t *Thread, parent int) {
		if t.TLS("dirty") != nil || t.TLS("dirty-kid") != nil || t.Op() != "" || t.Parent() != parent {
			t.Throw(fmt.Errorf("thread %d starts with TLS %v/%v, op %q, parent %d",
				t.ID(), t.TLS("dirty"), t.TLS("dirty-kid"), t.Op(), t.Parent()))
		}
	}
	err := w.Run(func(main *Thread) {
		check(main, 0)
		var mu Mutex
		var wg WaitGroup
		var prev *Thread
		for i := 0; i < 4; i++ {
			wg.Add(main, 1)
			before := prev
			prev = main.Spawn(fmt.Sprintf("probe%d", i), func(t *Thread) {
				defer wg.Done(t)
				check(t, main.ID())
				t.Work(Duration(50+30*i) * Microsecond)
				mu.Lock(t)
				t.SetOp(fmt.Sprintf("holding-%d", i))
				t.Work(20 * Microsecond)
				if i == 2 && seed%2 == 1 {
					t.Throw(errors.New("probe fault"))
				}
				mu.Unlock(t)
				if before != nil {
					t.Join(before)
				}
			})
		}
		wg.Wait(main)
	})
	return outcomeOf(w, err)
}

// TestReleasedWorldReuseIsInvisible runs each probe twice: on memory no
// world has used, and right after a released dirty world, whose threads,
// thread table, queue and baton channel the second run takes over. The
// two runs must show the same threads, end time, error and fault stacks.
func TestReleasedWorldReuseIsInvisible(t *testing.T) {
	reused := 0
	for seed := int64(1); seed <= 10; seed++ {
		want := probe(freshWorld(Config{Seed: seed, Jitter: 0.1, MaxEvents: DefaultMaxEvents}), seed)
		d := dirtyWorld(seed)
		old := map[*Thread]bool{}
		for _, th := range d.threads {
			old[th] = true
		}
		d.Release()
		w := NewWorld(Config{Seed: seed, Jitter: 0.1})
		got := probe(w, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: after a released world the run shows\n%+v\nwant\n%+v", seed, got, want)
		}
		if strings.Contains(got.err, "starts with") {
			t.Fatalf("seed %d: %s", seed, got.err)
		}
		for _, th := range w.threads {
			if old[th] {
				reused++
				break
			}
		}
		w.Release()
	}
	// Under -race sync.Pool drops a quarter of its Puts, so demand reuse
	// once, not every time.
	if reused == 0 {
		t.Fatal("no run reused a released world's threads")
	}
}

// TestWorldReleasePanics: Release before Run has returned and a second
// Release both panic, and a released world reads no threads.
func TestWorldReleasePanics(t *testing.T) {
	panics := func(f func()) (did bool) {
		defer func() { did = recover() != nil }()
		f()
		return false
	}
	w := NewWorld(Config{Seed: 1})
	if !panics(w.Release) {
		t.Fatal("Release before Run did not panic")
	}
	var inRun bool
	err := w.Run(func(main *Thread) {
		inRun = panics(w.Release)
		main.Spawn("child", func(*Thread) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inRun {
		t.Fatal("Release from a running thread did not panic")
	}
	w.Release()
	if n := len(w.Threads()); n != 0 {
		t.Fatalf("a released world reads %d threads", n)
	}
	if !panics(w.Release) {
		t.Fatal("second Release did not panic")
	}
	if err := w.Run(func(*Thread) {}); err == nil {
		t.Fatal("Run on a released world did not fail")
	}
}
