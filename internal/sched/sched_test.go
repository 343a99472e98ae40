package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"waffle/internal/obs"
)

func TestRunCommitsInAscendingOrder(t *testing.T) {
	// Jobs finish out of order (higher indices sleep less), but commit must
	// still observe 1, 2, 3, ... like a sequential loop.
	p := Pool{Workers: 4, Wave: 4}
	var order []int
	n := Run(p, 1, 12, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(13-i) * time.Millisecond / 4)
		return i * 10, nil
	}, func(r Result[int]) bool {
		if r.Err != nil {
			t.Errorf("job %d: %v", r.Index, r.Err)
		}
		if r.Value != r.Index*10 {
			t.Errorf("job %d value %d", r.Index, r.Value)
		}
		order = append(order, r.Index)
		return true
	})
	if n != 12 {
		t.Fatalf("committed %d, want 12", n)
	}
	for i, idx := range order {
		if idx != i+1 {
			t.Fatalf("commit order %v", order)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	p := Pool{Workers: 3, Wave: 9}
	var cur, peak atomic.Int32
	Run(p, 1, 9, func(_ context.Context, i int) (struct{}, error) {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	}, func(Result[struct{}]) bool { return true })
	if pk := peak.Load(); pk > 3 {
		t.Fatalf("peak concurrency %d exceeds Workers=3", pk)
	}
}

func TestRunStopsOnCommitFalse(t *testing.T) {
	p := Pool{Workers: 2, Wave: 2}
	var started atomic.Int32
	var committed []int
	n := Run(p, 1, 100, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		return i, nil
	}, func(r Result[int]) bool {
		committed = append(committed, r.Index)
		return r.Index < 3 // stop at index 3
	})
	if n != 3 || len(committed) != 3 {
		t.Fatalf("committed %d results (%v), want 3", n, committed)
	}
	// Only waves up to the stopping one may have started: indices 1..4
	// (two waves of 2), never the 50 waves beyond.
	if s := started.Load(); s > 4 {
		t.Fatalf("%d jobs started after stop", s)
	}
}

func TestRunRecoversJobPanics(t *testing.T) {
	p := Pool{Workers: 2, Wave: 4}
	var errs int
	n := Run(p, 1, 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("simulated world blew up")
		}
		return i, nil
	}, func(r Result[int]) bool {
		if r.Index == 2 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job 2 err = %v, want PanicError", r.Err)
			}
			if pe.Index != 2 || len(pe.Stack) == 0 {
				t.Fatalf("panic error incomplete: %+v", pe)
			}
			errs++
		} else if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
		return true
	})
	if n != 4 || errs != 1 {
		t.Fatalf("committed %d, panics %d", n, errs)
	}
}

func TestRunEmptyRange(t *testing.T) {
	n := Run(Pool{}, 5, 4, func(_ context.Context, i int) (int, error) {
		t.Fatal("job ran on empty range")
		return 0, nil
	}, func(Result[int]) bool {
		t.Fatal("commit ran on empty range")
		return true
	})
	if n != 0 {
		t.Fatalf("committed %d, want 0", n)
	}
}

func TestRunWaveDefaultsToWorkers(t *testing.T) {
	// With Wave unset, each wave is Workers wide: a stop in wave one means
	// at most Workers jobs ever start.
	var started atomic.Int32
	Run(Pool{Workers: 2}, 1, 50, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		return i, nil
	}, func(r Result[int]) bool { return false })
	if s := started.Load(); s != 2 {
		t.Fatalf("started %d jobs, want 2 (one wave of Workers)", s)
	}
}

// Tune is consulted once per wave, before it launches, with the wave
// number and committed count; a positive return becomes the worker cap
// for that wave, non-positive returns keep the previous cap.
func TestRunTuneAdjustsWorkerCap(t *testing.T) {
	var tuneCalls [][2]int
	caps := []int{4, 1, 0, 2} // wave 3's 0 must keep wave 2's cap of 1
	p := Pool{
		Workers: 4, Wave: 3,
		Tune: func(wave, committed int) int {
			tuneCalls = append(tuneCalls, [2]int{wave, committed})
			if wave <= len(caps) {
				return caps[wave-1]
			}
			return 0
		},
	}
	var cur atomic.Int32
	peaks := make([]int32, 5) // per-wave observed peak, indexed by wave
	waveOf := func(i int) int { return (i-1)/3 + 1 }
	Run(p, 1, 12, func(_ context.Context, i int) (struct{}, error) {
		w := waveOf(i)
		c := cur.Add(1)
		for {
			pk := atomic.LoadInt32(&peaks[w])
			if c <= pk || atomic.CompareAndSwapInt32(&peaks[w], pk, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	}, func(Result[struct{}]) bool { return true })

	want := [][2]int{{1, 0}, {2, 3}, {3, 6}, {4, 9}}
	if len(tuneCalls) != len(want) {
		t.Fatalf("tune calls %v, want %v", tuneCalls, want)
	}
	for i := range want {
		if tuneCalls[i] != want[i] {
			t.Fatalf("tune calls %v, want %v", tuneCalls, want)
		}
	}
	// Waves 2, 3 (cap kept at 1), and 4 must respect the tuned caps.
	if peaks[2] > 1 {
		t.Errorf("wave 2 peak %d, want <= 1", peaks[2])
	}
	if peaks[3] > 1 {
		t.Errorf("wave 3 peak %d, want <= 1 (non-positive Tune keeps prior cap)", peaks[3])
	}
	if peaks[4] > 2 {
		t.Errorf("wave 4 peak %d, want <= 2", peaks[4])
	}
}

// With no Tune hook the pool behaves exactly as before; the sched.workers
// gauge reports the static cap.
func TestRunWorkersGauge(t *testing.T) {
	r := obs.New()
	p := Pool{Workers: 3, Wave: 3, Metrics: r}
	Run(p, 1, 6, func(_ context.Context, i int) (int, error) { return i, nil },
		func(Result[int]) bool { return true })
	if g := r.Gauge("sched.workers").Value(); g != 3 {
		t.Fatalf("sched.workers gauge = %v, want 3", g)
	}
}
