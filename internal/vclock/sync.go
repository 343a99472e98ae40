package vclock

import "waffle/internal/sim"

// Full happens-before tracking: a SyncTracker listens to the simulator's
// release/acquire edges and folds them into the thread clocks that ride
// the TLS. With a tracker installed, recorded clocks capture the complete
// happens-before relation (forks, joins, locks, queues, events,
// semaphores), not just the fork edges Waffle's partial analysis keeps —
// the expensive alternative §4.1 weighs and rejects. The repository uses
// it to quantify that trade-off (see internal/eval's full-HB experiment).

// SyncTracker maintains per-object clocks under release-acquire semantics
// (FastTrack-style): a release joins the thread's clock into the object's
// and advances the thread's own component; an acquire joins the object's
// clock into the thread's.
type SyncTracker struct {
	clocks map[any]*Clock
	edges  int
}

// NewSyncTracker returns an empty tracker.
func NewSyncTracker() *SyncTracker {
	return &SyncTracker{clocks: make(map[any]*Clock)}
}

// Edges reports how many release/acquire events were observed — the count
// a real implementation would pay instrumentation cost for.
func (st *SyncTracker) Edges() int { return st.edges }

// Observe implements sim.SyncObserver (method value: tracker.Observe).
func (st *SyncTracker) Observe(t *sim.Thread, op sim.SyncOp, key any) {
	h, _ := t.TLS(Key).(*holder)
	if h == nil {
		return
	}
	st.edges++
	switch op {
	case sim.SyncRelease:
		st.clocks[key] = Join(st.clocks[key], h.clock)
		h.clock = h.clock.bumpOwn()
	case sim.SyncAcquire:
		if obj := st.clocks[key]; obj != nil {
			h.clock = Join(h.clock, obj).withOwner(h.clock.own)
		}
	}
}

// Join returns the component-wise maximum of two clocks. A nil operand
// acts as the zero clock. The result's owner comes from the first non-nil
// operand.
func Join(a, b *Clock) *Clock {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	av, bv := a.vals, b.vals
	vals := make([]Entry, 0, len(av)+len(bv))
	i, j := 0, 0
	for i < len(av) || j < len(bv) {
		switch {
		case j == len(bv) || i < len(av) && av[i].TID < bv[j].TID:
			vals = append(vals, av[i])
			i++
		case i == len(av) || bv[j].TID < av[i].TID:
			// An absent component reads 0, so only a positive counter
			// raises it.
			if bv[j].Counter > 0 {
				vals = append(vals, bv[j])
			}
			j++
		default:
			e := av[i]
			if bv[j].Counter > e.Counter {
				e.Counter = bv[j].Counter
			}
			vals = append(vals, e)
			i++
			j++
		}
	}
	return &Clock{own: a.own, vals: vals}
}

// bumpOwn returns a copy with the owner's component incremented — events
// after a release must not appear ordered before the acquirer's.
func (c *Clock) bumpOwn() *Clock {
	return &Clock{own: c.own, vals: c.withCounter(c.own, c.Get(c.own)+1)}
}

// withOwner returns a copy owned by own (Join keeps the first operand's
// owner; acquire must keep the thread's).
func (c *Clock) withOwner(own int) *Clock {
	if c.own == own {
		return c
	}
	return &Clock{own: own, vals: c.vals}
}
