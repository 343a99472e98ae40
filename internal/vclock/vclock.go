// Package vclock implements the fork-propagated vector clocks that Waffle
// (§4.1) piggybacks on inheritable thread-local storage.
//
// The paper's mechanism: each thread stores in its TLS a vector clock — a
// set of (thread id, counter) tuples. When a thread forks a child, the TLS
// region is copied to the child; the clock's fork hook then (1) appends a
// fresh (childTID, 1) tuple to the child's copy and (2) increments the
// parent's own counter. Only fork edges are tracked — locks, queues, and
// joins deliberately are not — which is exactly the partial happens-before
// analysis Table 1 marks "!*": cheap, and sufficient to prune the dominant
// class of pre-ordered MemOrder candidates (objects allocated in a parent
// before its workers exist).
//
// Clocks are immutable snapshots: a thread's clock value changes only at
// forks, so every event a thread performs between two forks can share one
// clock pointer, which keeps traces compact.
package vclock

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"waffle/internal/sim"
)

// Key is the TLS slot under which a thread's clock lives.
const Key sim.TLSKey = "waffle.vclock"

// Clock is an immutable vector-clock snapshot. The zero value is unusable;
// obtain clocks via Attach/Of.
type Clock struct {
	own  int     // the thread this clock belongs to
	vals []Entry // one tuple per thread id (own included), sorted by TID
}

// holder is the mutable TLS cell; its ForkTLS hook implements the paper's
// copy-then-append-then-bump protocol.
type holder struct {
	clock *Clock
}

// ForkTLS implements sim.TLSForker. It runs at Spawn: the child receives a
// copy of the parent's tuples plus its own (childTID, 1) entry, and the
// parent's own counter is incremented (so parent events after the fork are
// concurrent with the child).
func (h *holder) ForkTLS(parent, child *sim.Thread) any {
	return h.fork(child.ID())
}

// ForkTask implements sim.TaskForker: the same protocol applies when a
// task is submitted to a pool — the task's async-local context receives
// the forked clock keyed by the task's fresh id, so submit-before events
// order before everything the task does regardless of which worker thread
// executes it (§4.1's async-local note).
func (h *holder) ForkTask(submitter *sim.Thread, taskID int) any {
	return h.fork(taskID)
}

// fork performs the copy-append-bump protocol shared by thread forks and
// task submissions. Each side gets one copy of the parent's tuples.
func (h *holder) fork(childID int) *holder {
	p := h.clock
	h.clock = p.bumpOwn()
	return &holder{clock: &Clock{own: childID, vals: p.withCounter(childID, 1)}}
}

// find returns the position of tid in c.vals, or the position where it
// would be inserted, and whether it is present.
func (c *Clock) find(tid int) (int, bool) {
	return slices.BinarySearchFunc(c.vals, tid, func(e Entry, tid int) int { return cmp.Compare(e.TID, tid) })
}

// withCounter returns a copy of c's tuples in which tid's counter is ctr,
// inserting the tuple in TID order when tid is absent.
func (c *Clock) withCounter(tid int, ctr int64) []Entry {
	out := make([]Entry, len(c.vals), len(c.vals)+1)
	copy(out, c.vals)
	i, ok := c.find(tid)
	if ok {
		out[i].Counter = ctr
		return out
	}
	return slices.Insert(out, i, Entry{TID: tid, Counter: ctr})
}

// New returns a root clock for thread own with its own counter at 1 — the
// explicit-clock analog of Attach for runtimes without sim TLS (the live
// wall-clock runtime attaches clocks to its threads directly).
func New(own int) *Clock {
	return &Clock{own: own, vals: []Entry{{TID: own, Counter: 1}}}
}

// Fork applies the copy-append-bump protocol to explicit clocks: child is
// the parent's tuples plus a fresh (childID, 1) entry, and advanced is the
// parent's clock with its own counter incremented (so parent events after
// the fork are concurrent with the child). The live runtime calls this at
// Spawn, where no TLS-forking machinery exists; the returned clocks are
// immutable snapshots exactly like the TLS-managed ones.
func Fork(parent *Clock, childID int) (child, advanced *Clock) {
	h := &holder{clock: parent}
	ch := h.fork(childID)
	return ch.clock, h.clock
}

// Attach installs a root clock on t. Call once on the root thread before
// any instrumented activity; children inherit automatically via TLS.
func Attach(t *sim.Thread) {
	t.SetTLS(Key, &holder{clock: New(t.ID())})
}

// Of returns the current clock snapshot of t, or nil if none was attached
// anywhere on t's ancestry.
func Of(t *sim.Thread) *Clock {
	h, _ := t.TLS(Key).(*holder)
	if h == nil {
		return nil
	}
	return h.clock
}

// Owner reports the thread id this clock belongs to.
func (c *Clock) Owner() int { return c.own }

// Get returns the counter for tid (0 when absent).
func (c *Clock) Get(tid int) int64 {
	if i, ok := c.find(tid); ok {
		return c.vals[i].Counter
	}
	return 0
}

// Len reports the number of tuples in the clock.
func (c *Clock) Len() int { return len(c.vals) }

// Leq reports whether c happens-before-or-equals other: every component of
// c is ≤ the corresponding component of other (absent components read 0).
func (c *Clock) Leq(other *Clock) bool {
	o, j := other.vals, 0
	for _, e := range c.vals {
		for j < len(o) && o[j].TID < e.TID {
			j++
		}
		var ov int64
		if j < len(o) && o[j].TID == e.TID {
			ov = o[j].Counter
		}
		if e.Counter > ov {
			return false
		}
	}
	return true
}

// Ordered reports whether the two clocks are comparable in either
// direction — i.e. the events they stamp are causally ordered by fork
// edges. Waffle's near-miss filter drops candidate pairs whose clocks are
// Ordered.
func Ordered(a, b *Clock) bool {
	if a == nil || b == nil {
		return false
	}
	return a.Leq(b) || b.Leq(a)
}

// Equal reports whether two clocks carry identical tuples and owner. Nil
// clocks are equal only to nil. The pointer fast path matters in practice:
// clocks are immutable and shared across every event a thread records
// between two forks, so comparisons between a trace and a re-recording of
// it usually short-circuit without touching the tuples.
func Equal(a, b *Clock) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.own != b.own || len(a.vals) != len(b.vals) {
		return false
	}
	for i, e := range a.vals {
		if b.vals[i] != e {
			return false
		}
	}
	return true
}

// Concurrent reports the negation of Ordered for two non-nil clocks.
func Concurrent(a, b *Clock) bool {
	if a == nil || b == nil {
		return true
	}
	return !Ordered(a, b)
}

// Snapshot returns the clock's tuples as a sorted, self-contained slice,
// suitable for trace encoding.
func (c *Clock) Snapshot() []Entry {
	return append(make([]Entry, 0, len(c.vals)), c.vals...)
}

// FromSnapshot rebuilds a clock from encoded tuples. Tuples may come in
// any order; of several with one TID the last counts.
func FromSnapshot(own int, entries []Entry) *Clock {
	vals := append([]Entry(nil), entries...)
	sorted := true
	for i := 1; i < len(vals); i++ {
		if vals[i-1].TID >= vals[i].TID {
			sorted = false
			break
		}
	}
	if !sorted {
		slices.SortStableFunc(vals, func(a, b Entry) int { return cmp.Compare(a.TID, b.TID) })
		out := vals[:0]
		for i, e := range vals {
			if i+1 < len(vals) && vals[i+1].TID == e.TID {
				continue // a later tuple for this TID overrides it
			}
			out = append(out, e)
		}
		vals = out
	}
	return &Clock{own: own, vals: vals}
}

// Entry is one (thread id, counter) tuple of a clock snapshot.
type Entry struct {
	TID     int   `json:"tid"`
	Counter int64 `json:"ctr"`
}

// String renders the clock as {tid:ctr, ...} in tid order.
func (c *Clock) String() string {
	if c == nil {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range c.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%d", e.TID, e.Counter)
	}
	b.WriteByte('}')
	return b.String()
}
