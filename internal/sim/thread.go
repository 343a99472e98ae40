package sim

import (
	"errors"
	"fmt"
)

type threadState uint8

const (
	stateNew threadState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateDone
)

type resumeMsg struct {
	kill bool
}

// killSentinel unwinds a thread goroutine when the world shuts down early.
type killSentinel struct{}

// TLSKey names a slot in a thread's inheritable thread-local storage.
type TLSKey string

// TLSForker lets a TLS value customize how it propagates from parent to
// child at thread creation — the analog of C#'s LogicalCallContext / Java's
// InheritableThreadLocal copy hook that Waffle's vector clocks ride on.
type TLSForker interface {
	// ForkTLS is invoked during Spawn, before the child runs. It returns
	// the value installed in the child's TLS and may update the parent's
	// TLS in place (e.g. bump a fork counter).
	ForkTLS(parent, child *Thread) any
}

// tlsEntry is one slot of a thread's TLS.
type tlsEntry struct {
	key TLSKey
	val any
}

// Thread is a cooperatively scheduled unit of execution inside a World.
// All methods must be called from the thread's own context (i.e. inside the
// function passed to Run or Spawn), except the read-only ID/Parent/Name.
// A released world hands its Thread structs to the next world's threads
// (see World.Release), so a *Thread must not outlive its world's owner.
type Thread struct {
	w       *World
	id      int
	parent  int
	name    string
	state   threadState
	resume  chan resumeMsg // borrowed from the carrier running the thread
	tls     []tlsEntry     // in the order of each key's first SetTLS
	wakeGen uint64

	// The current operation label: op from SetOp, or, when opAccess is
	// set, the access announced by SetAccessOp, formatted only when read.
	op                     string
	opAccess               bool
	opKind, opName, opSite string

	joiners []*Thread
}

// ID reports the thread's unique id (root thread is 1).
func (t *Thread) ID() int { return t.id }

// Parent reports the spawning thread's id (0 for the root thread).
func (t *Thread) Parent() int { return t.parent }

// Name reports the label given at spawn.
func (t *Thread) Name() string { return t.name }

// World returns the owning world.
func (t *Thread) World() *World { return t.w }

// Now reports current virtual time.
func (t *Thread) Now() Time { return t.w.now }

// SetOp announces a human-readable label for the thread's current operation;
// it appears in fault stacks and thread snapshots.
func (t *Thread) SetOp(op string) { t.op, t.opAccess = op, false }

// SetAccessOp announces an instrumented access as the current operation.
// It stores the parts; the label "kind name @ site" is built only when Op,
// a Fault or a thread snapshot reads it, so announcing costs no formatting
// on the per-access path.
func (t *Thread) SetAccessOp(kind, name, site string) {
	t.opAccess = true
	t.opKind, t.opName, t.opSite = kind, name, site
}

// Op returns the last announced operation label.
func (t *Thread) Op() string {
	if t.opAccess {
		return t.opKind + " " + t.opName + " @ " + t.opSite
	}
	return t.op
}

// TLS returns the thread-local value stored under key, or nil.
func (t *Thread) TLS(key TLSKey) any {
	for i := range t.tls {
		if t.tls[i].key == key {
			return t.tls[i].val
		}
	}
	return nil
}

// SetTLS stores a thread-local value under key. Values are copied to child
// threads at Spawn (via TLSForker when implemented), in the order in which
// their keys were first set.
func (t *Thread) SetTLS(key TLSKey, v any) {
	for i := range t.tls {
		if t.tls[i].key == key {
			t.tls[i].val = v
			return
		}
	}
	t.tls = append(t.tls, tlsEntry{key, v})
}

// run wraps the user function on the thread's carrier goroutine. When the
// function returns or unwinds, the thread passes the baton on before its
// carrier goes idle: to the next thread, or back to Run.
func (t *Thread) run(fn func(*Thread)) {
	if msg := <-t.resume; msg.kill {
		t.state = stateDone
		t.w.alive--
		t.w.toRun <- struct{}{}
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok && t.w.fault == nil {
				// A user panic inside a thread is an unhandled exception.
				t.w.fault = &Fault{
					Err:    fmt.Errorf("panic: %v", r),
					Thread: t.id,
					Name:   t.name,
					T:      t.w.now,
					Op:     t.Op(),
					Stacks: t.w.stacks(t),
				}
			}
		}
		t.finish()
		if t.w.stopping {
			t.w.toRun <- struct{}{}
		} else {
			t.w.handTo(t.w.step())
		}
	}()
	fn(t)
}

// finish marks the thread done and wakes joiners.
func (t *Thread) finish() {
	if t.state == stateDone {
		return
	}
	if !t.w.stopping {
		t.w.noteSync(t, SyncRelease, t)
	}
	t.state = stateDone
	t.w.alive--
	if !t.w.stopping {
		for _, j := range t.joiners {
			t.w.schedule(j, t.w.now)
		}
	}
	t.joiners = t.joiners[:0]
}

// park gives up the baton and blocks until resumed. The caller must have
// arranged for the thread to be woken (scheduled or registered on a
// primitive's wait list) beforehand. The parking thread runs the
// scheduler's step itself: if the step picks this same thread, park
// returns at once (run-ahead); otherwise it resumes the picked thread, or
// Run when the run is over, and waits for its own turn.
func (t *Thread) park() {
	w := t.w
	if w.stopping {
		// killAll is unwinding this thread (a deferred call blocked);
		// nobody will resume it, so keep unwinding.
		panic(killSentinel{})
	}
	next := w.step()
	if next == t {
		return
	}
	w.handTo(next)
	if msg := <-t.resume; msg.kill {
		panic(killSentinel{})
	}
}

// block parks without being on the run queue; some other thread must
// schedule t to wake it.
func (t *Thread) block() {
	t.state = stateBlocked
	t.park()
}

// Spawn creates a child thread running fn, inheriting this thread's TLS.
// The child becomes runnable at the current virtual time; the parent keeps
// running (matching fork semantics — the child is *not* executed inline).
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	child := t.w.newThread(t, name, fn)
	t.w.schedule(child, t.w.now)
	return child
}

// Sleep suspends the thread for d of virtual time. Negative durations are
// treated as zero. This is the injection point for all delay-injection
// tools — the analog of Thread.Sleep in the paper.
func (t *Thread) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	t.w.schedule(t, t.w.now.Add(d))
	t.park()
}

// Rand returns a float64 in [0,1) from the world's seeded stream — the
// thread-context view of World.Rand, letting thread-agnostic consumers
// (core's injection engines) draw randomness without reaching through
// World. Must only be called from the running thread.
func (t *Thread) Rand() float64 { return t.w.Rand() }

// Yield reschedules the thread at the current time, giving equal-time
// threads a seeded-random chance to run first.
func (t *Thread) Yield() {
	t.w.schedule(t, t.w.now)
	t.park()
}

// Work advances virtual time by roughly d — the cost of a computation —
// applying the world's configured jitter. It is semantically Sleep with
// jitter and models instruction execution rather than intentional delay.
func (t *Thread) Work(d Duration) {
	t.Sleep(t.w.Jitter(d))
}

// Join blocks until other has finished, acquiring its causal past.
func (t *Thread) Join(other *Thread) {
	if other.state == stateDone {
		t.w.noteSync(t, SyncAcquire, other)
		return
	}
	other.joiners = append(other.joiners, t)
	t.block()
	t.w.noteSync(t, SyncAcquire, other)
}

// Throw raises an unhandled exception: the world records a Fault and the
// run terminates. Throw does not return.
func (t *Thread) Throw(err error) {
	if err == nil {
		err = errors.New("sim: Throw(nil)")
	}
	if t.w.fault == nil {
		t.w.fault = &Fault{
			Err:    err,
			Thread: t.id,
			Name:   t.name,
			T:      t.w.now,
			Op:     t.Op(),
			Stacks: t.w.stacks(t),
		}
	}
	panic(killSentinel{})
}
