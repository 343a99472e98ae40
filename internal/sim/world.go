package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Config parameterizes a World.
type Config struct {
	// Seed drives all scheduling tie-breaks and duration jitter. Two runs
	// with equal seeds and equal thread programs are identical.
	Seed int64

	// Jitter is the relative spread applied to Work durations, e.g. 0.05
	// scales each duration by a uniform factor in [0.95, 1.05]. Zero means
	// fully deterministic durations.
	Jitter float64

	// MaxTime aborts the run with ErrTimeout once virtual time would pass
	// it. Zero means no limit.
	MaxTime Duration

	// MaxEvents aborts the run with ErrEventLimit after that many scheduler
	// events (a runaway-loop backstop). Zero means a generous default.
	MaxEvents int

	// Cancel, when non-nil, aborts the run with ErrCanceled once the
	// channel is closed. The check happens between scheduler events, so a
	// cancelled world stops at the next event boundary and unwinds its
	// threads cleanly — this is how wall-clock run budgets cut short a
	// detection run that virtual-time limits cannot bound.
	Cancel <-chan struct{}
}

// DefaultMaxEvents bounds scheduler events when Config.MaxEvents is zero.
const DefaultMaxEvents = 20_000_000

// Errors reported by World.Run.
var (
	// ErrTimeout reports that virtual time exceeded Config.MaxTime.
	ErrTimeout = errors.New("sim: virtual time limit exceeded")
	// ErrDeadlock reports that live threads remain but none is runnable.
	ErrDeadlock = errors.New("sim: deadlock: all live threads blocked")
	// ErrEventLimit reports that the scheduler event budget was exhausted.
	ErrEventLimit = errors.New("sim: event limit exceeded")
	// ErrCanceled reports that Config.Cancel fired before the run finished.
	ErrCanceled = errors.New("sim: run canceled")
)

// Fault describes an unhandled failure raised by a thread — the analog of
// the unhandled exception that is Waffle's bug oracle.
type Fault struct {
	Err    error    // what went wrong
	Thread int      // faulting thread id
	Name   string   // faulting thread name
	T      Time     // virtual time of the fault
	Op     string   // the thread's last announced operation label
	Stacks []string // one "name@op" line per live thread, faulting first
}

func (f *Fault) Error() string {
	return fmt.Sprintf("fault at %v in thread %d (%s) during %q: %v", f.T, f.Thread, f.Name, f.Op, f.Err)
}

// World is a deterministic virtual-time scheduler. Create one with NewWorld,
// populate it via Run's root thread, and inspect the outcome afterwards.
// A World must not be reused after Run returns.
type World struct {
	cfg     Config
	rng     *rand.Rand
	now     Time
	nextTID int
	events  int

	queue    eventQueue
	threads  map[int]*Thread
	alive    int
	fault    *Fault
	err      error // why the run ended; set by step
	stopping bool
	syncObs  SyncObserver

	// toRun carries the baton back to Run: once when the run is over,
	// then once per thread killAll unwinds.
	toRun chan struct{}
}

// NewWorld returns a World configured by cfg.
func NewWorld(cfg Config) *World {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &World{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		threads: make(map[int]*Thread),
		toRun:   make(chan struct{}),
	}
}

// Now reports the current virtual time. Safe to call from thread context or
// after Run returns.
func (w *World) Now() Time { return w.now }

// Seed reports the seed the world was created with.
func (w *World) Seed() int64 { return w.cfg.Seed }

// Fault returns the fault that ended the run, or nil.
func (w *World) Fault() *Fault { return w.fault }

// Rand returns a float64 in [0,1) from the world's seeded stream. Must only
// be called from thread context (under the scheduler baton).
func (w *World) Rand() float64 { return w.rng.Float64() }

// Jitter scales d by the configured jitter spread.
func (w *World) Jitter(d Duration) Duration {
	if w.cfg.Jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + w.cfg.Jitter*(2*w.rng.Float64()-1)
	j := Duration(float64(d) * f)
	if j < 0 {
		j = 0
	}
	return j
}

// Run creates the root thread executing main and drives the world until all
// threads finish, a thread faults, the world deadlocks, or a limit trips.
// It returns nil on clean completion; a *Fault satisfies errors.As.
//
// Run only starts the root thread. From then on the baton goes directly
// from thread to thread: whichever thread parks or finishes runs the
// scheduler's step itself and resumes the thread it picks (see step). The
// baton comes back to Run when the run is over, and Run unwinds every
// thread still alive.
func (w *World) Run(main func(*Thread)) error {
	if w.nextTID != 0 {
		return errors.New("sim: World.Run called twice")
	}
	root := w.newThread(nil, "main", main)
	w.schedule(root, 0)
	if next := w.step(); next != nil {
		next.resume <- resumeMsg{}
		<-w.toRun
	}
	w.killAll()
	return w.err
}

// step is one turn of the scheduler loop, run by whichever goroutine holds
// the baton. It returns the thread to run next, or nil once the run is
// over, with w.err saying why. Every check and every RNG draw happens in
// the same order whichever goroutine runs it, so a seed still fixes the
// whole run.
func (w *World) step() *Thread {
	for {
		if w.fault != nil {
			w.err = w.fault
			return nil
		}
		if w.events >= w.cfg.MaxEvents {
			w.err = ErrEventLimit
			return nil
		}
		if w.canceled() {
			w.err = ErrCanceled
			return nil
		}
		if len(w.queue.items) == 0 {
			if w.alive > 0 {
				w.err = ErrDeadlock
			}
			return nil
		}
		it := w.queue.pop()
		if it.t.state == stateDone || it.gen != it.t.wakeGen {
			// Stale entry: the thread finished, or was rescheduled after
			// this entry was pushed (timed waits push a deadline wake that
			// an early signal supersedes).
			continue
		}
		w.events++
		if it.wake > w.now {
			w.now = it.wake
		}
		if w.cfg.MaxTime > 0 && w.now > Time(w.cfg.MaxTime) {
			w.err = ErrTimeout
			return nil
		}
		it.t.state = stateRunning
		return it.t
	}
}

// handTo passes the baton to next, or back to Run when next is nil.
func (w *World) handTo(next *Thread) {
	if next == nil {
		w.toRun <- struct{}{}
		return
	}
	next.resume <- resumeMsg{}
}

// canceled reports whether Config.Cancel has fired.
func (w *World) canceled() bool {
	if w.cfg.Cancel == nil {
		return false
	}
	select {
	case <-w.cfg.Cancel:
		return true
	default:
		return false
	}
}

// killAll unwinds every live thread so Run leaks no goroutines. Each
// killed thread hands the baton straight back to Run.
func (w *World) killAll() {
	w.stopping = true
	ids := make([]int, 0, len(w.threads))
	for id, t := range w.threads {
		if t.state != stateDone {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := w.threads[id]
		if t.state == stateDone {
			continue
		}
		t.resume <- resumeMsg{kill: true}
		<-w.toRun
	}
}

// schedule makes t runnable at wake (clamped to now). Rescheduling a
// thread invalidates any earlier pending entry for it: only the newest
// wake counts (timed waits rely on this to let a signal supersede the
// deadline wake).
func (w *World) schedule(t *Thread, wake Time) {
	if wake < w.now {
		wake = w.now
	}
	t.state = stateRunnable
	t.wakeGen++
	w.queue.seq++
	w.queue.push(eventItem{wake: wake, prio: w.rng.Uint64(), seq: w.queue.seq, gen: t.wakeGen, t: t})
}

func (w *World) newThread(parent *Thread, name string, fn func(*Thread)) *Thread {
	w.nextTID++
	t := &Thread{
		w:      w,
		id:     w.nextTID,
		name:   name,
		resume: make(chan resumeMsg),
		tls:    make(map[TLSKey]any),
	}
	if parent != nil {
		t.parent = parent.id
		for k, v := range parent.tls {
			if f, ok := v.(TLSForker); ok {
				t.tls[k] = f.ForkTLS(parent, t)
			} else {
				t.tls[k] = v
			}
		}
	}
	w.threads[t.id] = t
	w.alive++
	go t.run(fn)
	return t
}

// stacks renders one line per live thread, the faulting thread first.
func (w *World) stacks(first *Thread) []string {
	var out []string
	add := func(t *Thread) {
		out = append(out, fmt.Sprintf("thread %d (%s) @ %s", t.id, t.name, t.Op()))
	}
	add(first)
	ids := make([]int, 0, len(w.threads))
	for id := range w.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := w.threads[id]
		if t != first && t.state != stateDone {
			add(t)
		}
	}
	return out
}

// Threads reports a snapshot of all threads ever created, ordered by id.
// Intended for post-run inspection and reports.
func (w *World) Threads() []ThreadInfo {
	ids := make([]int, 0, len(w.threads))
	for id := range w.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]ThreadInfo, 0, len(ids))
	for _, id := range ids {
		t := w.threads[id]
		out = append(out, ThreadInfo{ID: t.id, Parent: t.parent, Name: t.name, Done: t.state == stateDone, LastOp: t.Op()})
	}
	return out
}

// ThreadInfo is a read-only snapshot of one thread's identity and progress.
type ThreadInfo struct {
	ID     int
	Parent int
	Name   string
	Done   bool
	LastOp string
}

// eventItem orders runnable threads by (wake time, seeded priority, seq).
type eventItem struct {
	wake Time
	prio uint64
	seq  uint64
	gen  uint64
	t    *Thread
}

func (a *eventItem) before(b *eventItem) bool {
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of eventItems held by value, so
// scheduling allocates nothing once the backing array has grown. seq is
// unique, so the order is total and any correct heap pops the same item.
type eventQueue struct {
	items []eventItem
	seq   uint64
}

func (q *eventQueue) push(it eventItem) {
	q.items = append(q.items, it)
	h := q.items
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() eventItem {
	h := q.items
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = eventItem{} // drop the *Thread reference
	h = h[:n]
	q.items = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}
