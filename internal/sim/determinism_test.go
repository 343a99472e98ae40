package sim

import (
	"fmt"
	"testing"
)

// chaosRun exercises every primitive at once — threads, tasks, mutexes,
// reader/writer locks, queues, events, semaphores, timed waits, jitter —
// and returns a full execution fingerprint: the interleaving of labeled
// checkpoints plus the final virtual time.
func chaosRun(seed int64) (fingerprint []string, end Time, err error) {
	w := NewWorld(Config{Seed: seed, Jitter: 0.1})
	note := func(s string) { fingerprint = append(fingerprint, s) }
	err = w.Run(func(main *Thread) {
		var (
			mu   Mutex
			rw   RWMutex
			ev   Event
			q    Queue
			wg   WaitGroup
			sem  = NewSemaphore(2)
			pool = NewTaskPool(main, 2, "chaos")
		)
		for i := 0; i < 4; i++ {
			i := i
			wg.Add(main, 1)
			main.Spawn(fmt.Sprintf("worker%d", i), func(t *Thread) {
				defer wg.Done(t)
				t.Work(Duration(100+37*i) * Microsecond)
				sem.Acquire(t)
				mu.Lock(t)
				note(fmt.Sprintf("crit-%d", i))
				mu.Unlock(t)
				sem.Release(t)
				if i%2 == 0 {
					rw.RLock(t)
					note(fmt.Sprintf("read-%d", i))
					rw.RUnlock(t)
				} else {
					rw.Lock(t)
					note(fmt.Sprintf("write-%d", i))
					rw.Unlock(t)
				}
				if ev.WaitTimeout(t, Duration(200+i*50)*Microsecond) {
					note(fmt.Sprintf("signaled-%d", i))
				} else {
					note(fmt.Sprintf("timeout-%d", i))
				}
				q.Send(t, i)
			})
		}
		var handles []*TaskHandle
		for i := 0; i < 3; i++ {
			i := i
			handles = append(handles, pool.Submit(main, "task", func(t *Thread) {
				t.Work(Duration(80+29*i) * Microsecond)
				note(fmt.Sprintf("task-%d", i))
			}))
		}
		main.Sleep(400 * Microsecond)
		ev.Set(main)
		for range [4]int{} {
			v, ok := q.RecvTimeout(main, 10*Millisecond)
			if !ok {
				note("drain-timeout")
				break
			}
			note(fmt.Sprintf("drained-%d", v))
		}
		for _, h := range handles {
			h.Wait(main)
		}
		pool.Shutdown(main)
		pool.Join(main)
		wg.Wait(main)
	})
	return fingerprint, w.Now(), err
}

// TestChaosDeterminism: identical seeds yield identical interleavings and
// end times over the full primitive surface; different seeds diverge.
func TestChaosDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		f1, e1, err1 := chaosRun(seed)
		f2, e2, err2 := chaosRun(seed)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: errors %v / %v", seed, err1, err2)
		}
		if e1 != e2 {
			t.Fatalf("seed %d: end times diverged: %v vs %v", seed, e1, e2)
		}
		if len(f1) != len(f2) {
			t.Fatalf("seed %d: fingerprint lengths diverged: %d vs %d", seed, len(f1), len(f2))
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("seed %d: fingerprints diverged at %d: %q vs %q", seed, i, f1[i], f2[i])
			}
		}
	}

	// Across seeds, at least some interleavings must differ.
	base, _, _ := chaosRun(1)
	diverged := false
	for seed := int64(2); seed <= 6 && !diverged; seed++ {
		other, _, _ := chaosRun(seed)
		if len(other) != len(base) {
			diverged = true
			break
		}
		for i := range base {
			if base[i] != other[i] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("six seeds produced identical chaos interleavings")
	}
}

// TestChaosNoLeaksAcrossManyWorlds: repeated chaos worlds must not strand
// goroutines (the handoff/park protocol covers every primitive).
func TestChaosNoLeaksAcrossManyWorlds(t *testing.T) {
	base := goroutinesAtRest(t)
	for seed := int64(0); seed < 30; seed++ {
		if _, _, err := chaosRun(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertNoGoroutineLeak(t, base)
	}
}
