package sim

import (
	"runtime"
	"testing"
	"time"
)

// runFourThreads runs one world whose root spawns three threads and waits
// for them.
func runFourThreads(t testing.TB, seed int64) {
	t.Helper()
	err := NewWorld(Config{Seed: seed}).Run(func(main *Thread) {
		var wg WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(main, 1)
			main.Spawn("worker", func(t *Thread) {
				t.Sleep(Millisecond)
				wg.Done(t)
			})
		}
		wg.Wait(main)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCarriersAreReused runs 200 four-thread worlds one after another.
// Their 800 threads must run on a handful of goroutines: a finished
// thread's goroutine waits idle and the next thread takes it.
func TestCarriersAreReused(t *testing.T) {
	goroutinesAtRest(t)
	before := carriers.started.Load()
	for seed := int64(0); seed < 200; seed++ {
		runFourThreads(t, seed)
	}
	started := carriers.started.Load() - before
	if started > 16 {
		t.Fatalf("800 threads started %d goroutines, want a handful", started)
	}
	t.Logf("800 threads started %d goroutines", started)
}

// TestIdleCarriersExpire checks that the pool gives its goroutines back:
// within 10×idleFor of the last run, the goroutine count is what it was
// before the runs.
func TestIdleCarriersExpire(t *testing.T) {
	base := goroutinesAtRest(t)
	for seed := int64(0); seed < 20; seed++ {
		runFourThreads(t, seed)
	}
	end := time.Now()
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if waited := time.Since(end); waited > 10*idleFor {
			t.Fatalf("%d goroutines %v after the runs, %d before", n, waited, base)
		}
		time.Sleep(idleFor / 10)
	}
}

// BenchmarkWorldRun measures one small run whole: NewWorld, a root thread
// that spawns four threads and joins them, about 100 scheduler events, and
// Release. Unlike the per-event benchmarks it counts what a run costs to
// set up: seeding the generator, the threads a released world left, and
// starting the thread goroutines. Run with -benchmem.
func BenchmarkWorldRun(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		w := NewWorld(Config{Seed: int64(i)})
		err := w.Run(func(main *Thread) {
			var workers [4]*Thread
			for k := range workers {
				workers[k] = main.Spawn("worker", func(t *Thread) {
					for j := 0; j < 23; j++ {
						t.Sleep(Microsecond)
					}
				})
			}
			for _, wt := range workers {
				main.Join(wt)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		events += w.events
		w.Release()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
