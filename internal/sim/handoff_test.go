package sim

import (
	"math"
	"testing"
)

// pingPong runs root and a peer that sleep in turn, root on even and the
// peer on odd microseconds, so every Sleep hands the baton to the other
// thread. drive runs on root and calls sleep for each of root's Sleeps;
// each one is two scheduler events, root's and the peer's.
func pingPong(tb testing.TB, cfg Config, drive func(sleep func())) {
	w := NewWorld(cfg)
	stop := false
	err := w.Run(func(root *Thread) {
		peer := root.Spawn("peer", func(p *Thread) {
			p.Sleep(Microsecond)
			for !stop {
				p.Sleep(2 * Microsecond)
			}
		})
		drive(func() { root.Sleep(2 * Microsecond) })
		stop = true
		root.Join(peer)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestSchedulerEventZeroAllocs pins the scheduler's per-event cost at zero
// allocations: the event queue holds its items by value, and the baton
// goes straight from thread to thread over their resume channels. It
// covers a lone thread, whose Sleep runs ahead without a switch, and two
// threads that hand the baton to each other on every Sleep.
func TestSchedulerEventZeroAllocs(t *testing.T) {
	const runs = 1000
	t.Run("sleep-lone", func(t *testing.T) {
		var avg float64
		w := NewWorld(Config{Seed: 1})
		err := w.Run(func(th *Thread) {
			avg = testing.AllocsPerRun(runs, func() { th.Sleep(Microsecond) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Fatalf("a lone thread's Sleep allocates %v times, want 0", avg)
		}
	})
	t.Run("ping-pong", func(t *testing.T) {
		var avg float64
		pingPong(t, Config{Seed: 1}, func(sleep func()) {
			avg = testing.AllocsPerRun(runs, sleep)
		})
		if avg != 0 {
			t.Fatalf("a two-thread handoff allocates %v times per round, want 0", avg)
		}
	})
}

// BenchmarkSleepLone measures one scheduler event when a single thread is
// runnable: Sleep pushes the thread's wake and the step pops it again,
// with no goroutine switch. One op is one Sleep, one event. Run with
// -benchmem; allocs/op must be 0.
func BenchmarkSleepLone(b *testing.B) {
	w := NewWorld(Config{Seed: 1, MaxEvents: math.MaxInt})
	b.ReportAllocs()
	err := w.Run(func(th *Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Sleep(Microsecond)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPingPong measures scheduler events that switch threads: two
// threads sleep in turn, so every event hands the baton to the other one.
// One op is one round, two events; ns/event is half of ns/op. Run with
// -benchmem; allocs/op must be 0.
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	pingPong(b, Config{Seed: 1, MaxEvents: math.MaxInt}, func(sleep func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sleep()
		}
		b.StopTimer()
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/event")
}
