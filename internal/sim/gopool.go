package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Thread goroutines are pooled process-wide. When a thread finishes, its
// goroutine passes the baton on and then waits idle, keeping the stack it
// grew; the next thread started in any world takes the most recently
// idled goroutine instead of starting one whose stack must grow again.
// Which goroutine runs a thread is not part of the schedule: the baton
// alone decides when a thread runs.
const (
	// idleFor is the sweep period. A sweep stops the goroutines that were
	// idle at the previous one, so a goroutine outlives its last thread by
	// between idleFor and about 2×idleFor.
	idleFor = 2 * time.Millisecond
	// maxIdle bounds the idle goroutines; one that finds the pool full
	// exits at once.
	maxIdle = 256
)

// carrier is one pooled goroutine. The thread it runs borrows its resume
// channel; a carrier runs one thread at a time, so no send meant for an
// earlier thread can reach a later one.
type carrier struct {
	resume chan resumeMsg
	next   chan job // the next thread to run; a zero job stops the goroutine
}

// job is a thread the carrier runs next.
type job struct {
	t  *Thread
	fn func(*Thread)
}

type carrierPool struct {
	mu    sync.Mutex
	idle  []*carrier  // the most recently idled on top
	stale int         // idle[:stale] were idle at the last sweep
	sweep *time.Timer // armed while any carrier is idle
	armed bool

	// started and exited count the goroutines the pool has started and
	// the ones that have returned (tests read them).
	started, exited atomic.Int64
}

var carriers carrierPool

// start runs fn as thread t on an idle carrier, or on a new one.
func (p *carrierPool) start(t *Thread, fn func(*Thread)) {
	if c := p.take(); c != nil {
		t.resume = c.resume
		c.next <- job{t, fn}
		return
	}
	c := &carrier{resume: make(chan resumeMsg), next: make(chan job, 1)}
	t.resume = c.resume
	p.started.Add(1)
	go p.loop(c, job{t, fn})
}

// loop runs threads until the carrier is stopped. A thread that calls
// runtime.Goexit takes its carrier's goroutine with it.
func (p *carrierPool) loop(c *carrier, j job) {
	defer p.exited.Add(1)
	for j.t != nil {
		j.t.run(j.fn)
		if !p.put(c) {
			return
		}
		j = <-c.next
	}
}

// take pops the most recently idled carrier, or returns nil.
func (p *carrierPool) take() *carrier {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle) - 1
	if n < 0 {
		return nil
	}
	c := p.idle[n]
	p.idle[n] = nil
	p.idle = p.idle[:n]
	p.stale = min(p.stale, n)
	return c
}

// put parks c as idle and reports whether it was kept.
func (p *carrierPool) put(c *carrier) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= maxIdle {
		return false
	}
	p.idle = append(p.idle, c)
	if !p.armed {
		// The pool was empty at the last sweep, or has never been swept:
		// the next sweep, a full idleFor away, stops c if it is still idle.
		p.armed = true
		p.stale = len(p.idle)
		if p.sweep == nil {
			p.sweep = time.AfterFunc(idleFor, p.stopStale)
		} else {
			p.sweep.Reset(idleFor)
		}
	}
	return true
}

// stopStale is the sweep: it stops the carriers that have been idle
// since the previous sweep and re-arms itself while any carrier is idle.
// The bottom of the stack is the part nothing took since then. An idle
// carrier's next channel is empty, so the sends under the lock never
// block.
func (p *carrierPool) stopStale() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle[:p.stale] {
		c.next <- job{}
	}
	n := copy(p.idle, p.idle[p.stale:])
	clear(p.idle[n:])
	p.idle = p.idle[:n]
	p.stale = n
	p.armed = n > 0
	if p.armed {
		p.sweep.Reset(idleFor)
	}
}
