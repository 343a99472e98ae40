package sim

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestRunEmptyMain(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	if err := w.Run(func(*Thread) {}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.Now() != 0 {
		t.Fatalf("time advanced to %v with no work", w.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	err := w.Run(func(th *Thread) {
		th.Sleep(5 * Millisecond)
		if th.Now() != Time(5*Millisecond) {
			t.Errorf("Now = %v, want 5ms", th.Now())
		}
		th.Sleep(2500 * Microsecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := w.Now(), Time(7500*Microsecond); got != want {
		t.Fatalf("final time = %v, want %v", got, want)
	}
}

func TestSleepNegativeIsZero(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	if err := w.Run(func(th *Thread) { th.Sleep(-Millisecond) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.Now() != 0 {
		t.Fatalf("negative sleep advanced time to %v", w.Now())
	}
}

func TestSpawnRunsConcurrentlyInVirtualTime(t *testing.T) {
	w := NewWorld(Config{Seed: 42})
	var order []string
	err := w.Run(func(main *Thread) {
		child := main.Spawn("child", func(c *Thread) {
			c.Sleep(1 * Millisecond)
			order = append(order, "child@1ms")
		})
		main.Sleep(2 * Millisecond)
		order = append(order, "main@2ms")
		main.Join(child)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "child@1ms" || order[1] != "main@2ms" {
		t.Fatalf("order = %v", order)
	}
	// Concurrent sleeps overlap: total virtual time is max, not sum.
	if got, want := w.Now(), Time(2*Millisecond); got != want {
		t.Fatalf("final time = %v, want %v", got, want)
	}
}

func TestJoinWaitsForChild(t *testing.T) {
	w := NewWorld(Config{Seed: 7})
	done := false
	err := w.Run(func(main *Thread) {
		c := main.Spawn("slow", func(c *Thread) {
			c.Sleep(10 * Millisecond)
			done = true
		})
		main.Join(c)
		if !done {
			t.Error("Join returned before child finished")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestJoinFinishedChildReturnsImmediately(t *testing.T) {
	w := NewWorld(Config{Seed: 7})
	err := w.Run(func(main *Thread) {
		c := main.Spawn("fast", func(*Thread) {})
		main.Sleep(Millisecond) // let the child finish
		main.Join(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestThrowProducesFault(t *testing.T) {
	boom := errors.New("boom")
	w := NewWorld(Config{Seed: 1})
	err := w.Run(func(main *Thread) {
		main.SetOp("detonating")
		main.Throw(boom)
	})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Run error = %v, want *Fault", err)
	}
	if !errors.Is(f.Err, boom) {
		t.Fatalf("fault err = %v, want boom", f.Err)
	}
	if f.Op != "detonating" || f.Thread != 1 {
		t.Fatalf("fault = %+v", f)
	}
	if len(f.Stacks) == 0 {
		t.Fatal("fault has no stacks")
	}
}

func TestFaultStopsOtherThreads(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	reached := false
	err := w.Run(func(main *Thread) {
		main.Spawn("victim", func(c *Thread) {
			c.Sleep(100 * Millisecond)
			reached = true
		})
		main.Sleep(Millisecond)
		main.Throw(errors.New("crash"))
	})
	if err == nil {
		t.Fatal("expected fault")
	}
	if reached {
		t.Fatal("other thread kept running after fault")
	}
}

func TestPanicBecomesFault(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	err := w.Run(func(main *Thread) { panic("kaboom") })
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Run error = %v, want *Fault", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	var m1, m2 Mutex
	err := w.Run(func(main *Thread) {
		a := main.Spawn("a", func(t *Thread) {
			m1.Lock(t)
			t.Sleep(Millisecond)
			m2.Lock(t)
		})
		b := main.Spawn("b", func(t *Thread) {
			m2.Lock(t)
			t.Sleep(Millisecond)
			m1.Lock(t)
		})
		main.Join(a)
		main.Join(b)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, want ErrDeadlock", err)
	}
}

func TestTimeout(t *testing.T) {
	w := NewWorld(Config{Seed: 1, MaxTime: 10 * Millisecond})
	err := w.Run(func(main *Thread) {
		for {
			main.Sleep(5 * Millisecond)
		}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run error = %v, want ErrTimeout", err)
	}
}

func TestEventLimit(t *testing.T) {
	w := NewWorld(Config{Seed: 1, MaxEvents: 100})
	err := w.Run(func(main *Thread) {
		for {
			main.Yield()
		}
	})
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("Run error = %v, want ErrEventLimit", err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	trace := func(seed int64) []int {
		var got []int
		w := NewWorld(Config{Seed: seed, Jitter: 0.1})
		err := w.Run(func(main *Thread) {
			var wg WaitGroup
			for i := 0; i < 8; i++ {
				i := i
				wg.Add(main, 1)
				main.Spawn("t", func(t *Thread) {
					t.Work(Duration(100+i) * Microsecond)
					got = append(got, i)
					wg.Done(t)
				})
			}
			wg.Wait(main)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	a, b := trace(99), trace(99)
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestDifferentSeedsUsuallyDiffer(t *testing.T) {
	run := func(seed int64) []int {
		var got []int
		w := NewWorld(Config{Seed: seed})
		_ = w.Run(func(main *Thread) {
			var wg WaitGroup
			for i := 0; i < 10; i++ {
				i := i
				wg.Add(main, 1)
				main.Spawn("t", func(t *Thread) {
					t.Yield() // same wake time: order is seed-dependent
					got = append(got, i)
					wg.Done(t)
				})
			}
			wg.Wait(main)
		})
		return got
	}
	base := run(1)
	diff := false
	for seed := int64(2); seed < 8; seed++ {
		other := run(seed)
		for i := range base {
			if base[i] != other[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("six different seeds produced identical interleavings")
	}
}

func TestTLSInheritance(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	err := w.Run(func(main *Thread) {
		main.SetTLS("k", "parent-value")
		c := main.Spawn("child", func(c *Thread) {
			if got := c.TLS("k"); got != "parent-value" {
				t.Errorf("child TLS = %v", got)
			}
			c.SetTLS("k", "child-value")
		})
		main.Join(c)
		if got := main.TLS("k"); got != "parent-value" {
			t.Errorf("parent TLS mutated to %v", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

type forkCounter struct{ forks int }

func (f *forkCounter) ForkTLS(parent, child *Thread) any {
	f.forks++
	return &forkCounter{}
}

func TestTLSForkerHookRuns(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	fc := &forkCounter{}
	err := w.Run(func(main *Thread) {
		main.SetTLS("vc", fc)
		c1 := main.Spawn("c1", func(c *Thread) {
			if c.TLS("vc") == fc {
				t.Error("child shares parent's TLS value despite ForkTLS")
			}
		})
		c2 := main.Spawn("c2", func(*Thread) {})
		main.Join(c1)
		main.Join(c2)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fc.forks != 2 {
		t.Fatalf("ForkTLS ran %d times, want 2", fc.forks)
	}
}

func TestThreadInfoSnapshot(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	err := w.Run(func(main *Thread) {
		c := main.Spawn("worker", func(c *Thread) { c.SetOp("grinding") })
		main.Join(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	infos := w.Threads()
	if len(infos) != 2 {
		t.Fatalf("Threads() = %d entries, want 2", len(infos))
	}
	if infos[0].ID != 1 || infos[0].Parent != 0 {
		t.Fatalf("root info = %+v", infos[0])
	}
	if infos[1].Name != "worker" || infos[1].Parent != 1 || !infos[1].Done {
		t.Fatalf("child info = %+v", infos[1])
	}
}

func TestJitterBounds(t *testing.T) {
	w := NewWorld(Config{Seed: 3, Jitter: 0.05})
	err := quick.Check(func(raw int32) bool {
		d := Duration(raw)
		if d < 0 {
			d = -d
		}
		j := w.Jitter(d)
		lo := Duration(float64(d) * 0.94)
		hi := Duration(float64(d)*1.06) + 1
		return j >= lo && j <= hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestJitterZeroConfigIsIdentity(t *testing.T) {
	w := NewWorld(Config{Seed: 3})
	for _, d := range []Duration{0, 1, Millisecond, Second} {
		if got := w.Jitter(d); got != d {
			t.Fatalf("Jitter(%v) = %v without configured jitter", d, got)
		}
	}
}

func TestRunTwiceErrors(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	if err := w.Run(func(*Thread) {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := w.Run(func(*Thread) {}); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Microsecond, "500µs"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: total virtual time of N sequential sleeps equals their sum.
func TestSequentialSleepSumProperty(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		w := NewWorld(Config{Seed: 5})
		var want Time
		runErr := w.Run(func(main *Thread) {
			for _, r := range raw {
				d := Duration(r)
				want = want.Add(d)
				main.Sleep(d)
			}
		})
		return runErr == nil && w.Now() == want
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: virtual time never runs backwards across scheduler events.
func TestMonotonicTimeProperty(t *testing.T) {
	w := NewWorld(Config{Seed: 11, Jitter: 0.2})
	var stamps []Time
	err := w.Run(func(main *Thread) {
		var wg WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(main, 1)
			main.Spawn("t", func(t *Thread) {
				for j := 0; j < 20; j++ {
					t.Work(Duration(50+10*j) * Microsecond)
					stamps = append(stamps, t.Now())
				}
				wg.Done(t)
			})
		}
		wg.Wait(main)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("time went backwards: %v then %v", stamps[i-1], stamps[i])
		}
	}
}

// assertNoGoroutineLeak polls until runtime.NumGoroutine() is back at base.
// A thread's goroutine passes the baton on just before it returns, so it
// may still be exiting when Run returns; one that is blocked for good
// keeps the count up until the deadline fails the test.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: %d leaked", n, base, n-base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNoGoroutineLeakAfterFault(t *testing.T) {
	// Many worlds that fault with live threads must not strand goroutines:
	// killAll unwinds them.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		w := NewWorld(Config{Seed: int64(i)})
		_ = w.Run(func(main *Thread) {
			for j := 0; j < 5; j++ {
				main.Spawn("stuck", func(t *Thread) {
					var blocked Event
					blocked.Wait(t) // never set
				})
			}
			main.Sleep(Millisecond)
			main.Throw(errors.New("end"))
		})
		assertNoGoroutineLeak(t, base)
	}
}

// TestNoGoroutineLeakOnEveryRunEnding ends runs every way a run can end
// and checks that each leaves no goroutine behind. The baton goes from
// thread to thread, so a different goroutine ends the run on each path:
// the last thread to finish, the faulting thread's unwinding, or the
// thread whose park finds the queue empty, a limit tripped or the run
// canceled. It hands the baton back to Run, which then unwinds the
// bystanders: threads blocked for good, asleep past the end, spawned but
// never started, or blocking again in a deferred call while unwound.
func TestNoGoroutineLeakOnEveryRunEnding(t *testing.T) {
	boom := errors.New("boom")
	bystanders := func(main *Thread) {
		main.Spawn("blocked", func(t *Thread) {
			var never Event
			never.Wait(t)
		})
		main.Spawn("asleep", func(t *Thread) { t.Sleep(Second) })
	}
	run := func(cfg Config, body func(*Thread)) error { return NewWorld(cfg).Run(body) }
	isNil := func(err error) bool { return err == nil }
	isFault := func(err error) bool {
		var f *Fault
		return errors.As(err, &f)
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	cases := []struct {
		name string
		run  func(seed int64) error
		ok   func(error) bool
	}{
		{"finish-main-last", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				c := main.Spawn("child", func(t *Thread) { t.Sleep(Millisecond) })
				main.Join(c)
			})
		}, isNil},
		{"finish-child-last", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				main.Spawn("child", func(t *Thread) { t.Sleep(Millisecond) })
			})
		}, isNil},
		{"throw", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				bystanders(main)
				main.Sleep(Millisecond)
				main.Throw(boom)
			})
		}, isFault},
		{"throw-in-child", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				bystanders(main)
				c := main.Spawn("thrower", func(t *Thread) {
					t.Sleep(Millisecond)
					t.Throw(boom)
				})
				main.Join(c)
			})
		}, isFault},
		{"panic", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				bystanders(main)
				main.Sleep(Millisecond)
				panic("kaboom")
			})
		}, isFault},
		{"deadlock", func(seed int64) error {
			var m1, m2 Mutex
			return run(Config{Seed: seed}, func(main *Thread) {
				bystanders(main)
				a := main.Spawn("a", func(t *Thread) {
					m1.Lock(t)
					t.Sleep(Millisecond)
					m2.Lock(t)
				})
				b := main.Spawn("b", func(t *Thread) {
					m2.Lock(t)
					t.Sleep(Millisecond)
					m1.Lock(t)
				})
				main.Join(a)
				main.Join(b)
			})
		}, is(ErrDeadlock)},
		{"max-time", func(seed int64) error {
			return run(Config{Seed: seed, MaxTime: 10 * Millisecond}, func(main *Thread) {
				bystanders(main)
				for {
					main.Sleep(Millisecond)
				}
			})
		}, is(ErrTimeout)},
		{"max-events", func(seed int64) error {
			return run(Config{Seed: seed, MaxEvents: 100}, func(main *Thread) {
				bystanders(main)
				for {
					main.Yield()
				}
			})
		}, is(ErrEventLimit)},
		{"cancel", func(seed int64) error {
			cancel := make(chan struct{})
			return run(Config{Seed: seed, Cancel: cancel}, func(main *Thread) {
				bystanders(main)
				main.Sleep(Millisecond)
				close(cancel)
				main.Sleep(Millisecond)
			})
		}, is(ErrCanceled)},
		{"children-never-ran", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				for i := 0; i < 3; i++ {
					main.Spawn("unstarted", func(t *Thread) { t.Sleep(Millisecond) })
				}
				main.Throw(boom)
			})
		}, isFault},
		{"blocking-defer", func(seed int64) error {
			return run(Config{Seed: seed}, func(main *Thread) {
				main.Spawn("defers", func(t *Thread) {
					defer t.Sleep(Millisecond)
					var never Event
					never.Wait(t)
				})
				main.Sleep(Millisecond)
				main.Throw(boom)
			})
		}, isFault},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for seed := int64(0); seed < 20; seed++ {
				if err := c.run(seed); !c.ok(err) {
					t.Fatalf("seed %d: Run = %v", seed, err)
				}
				assertNoGoroutineLeak(t, base)
			}
		})
	}
}
