package memmodel

import (
	"fmt"
	"math/rand"

	"waffle/internal/sim"
	"waffle/internal/trace"
)

// TSO mode: per-thread store buffers over Ref state transitions.
//
// Under sequential consistency every Init/Dispose becomes globally visible
// the instant it executes. Under TSO (x86-style total store order) a store
// first enters the issuing thread's store buffer and only later commits to
// memory; the issuing thread reads its own buffered stores (store-to-load
// forwarding) while every other thread keeps observing the pre-store state
// until the commit. The model here is the timing-based TSO semantics of
// "Time, Fences and the Ordering of Events in TSO" (arxiv 2508.11415)
// specialized to the lifecycle state machine: each buffered store carries a
// commit deadline (visibleAt) drawn from a heap-local seeded RNG, commits
// are applied lazily in deadline order at every subsequent access, and
// per-thread FIFO order is enforced by making each store's deadline
// monotone within its thread — exactly a store buffer draining in order.
//
// Timing never changes: TSO mode alters only which state an access
// *observes*, never when anything executes, so preparation traces (and the
// plans derived from them) are byte-identical to sequential-consistency
// runs of the same program. That is what lets Waffle's unchanged
// delay-injection machinery search for stale reads: delaying a store's
// *visibility* (AddFlushDelay) widens the stale window without perturbing
// any thread, so a fence-free read lands inside it.

// TSOConfig parameterizes a heap's store-buffer model.
type TSOConfig struct {
	// Seed drives the flush-latency RNG. It is deliberately separate from
	// the world seed: flush timing must not perturb scheduling randomness,
	// or TSO-mode prep traces would diverge from SC ones.
	Seed int64
	// FlushMin and FlushMax bound the commit latency drawn per store.
	// Both zero means the defaults; a negative FlushMin means zero latency
	// (stores commit instantly — provably equivalent to SC).
	FlushMin, FlushMax sim.Duration
}

// Default store-buffer drain latencies. Far below the multi-millisecond
// gaps genprog plants, so an undelayed run always commits before the
// reader arrives — stale reads manifest only when injection widens the
// window.
const (
	DefaultFlushMin = 20 * sim.Microsecond
	DefaultFlushMax = 200 * sim.Microsecond
)

func (c TSOConfig) withDefaults() TSOConfig {
	if c.FlushMin == 0 && c.FlushMax == 0 {
		c.FlushMin, c.FlushMax = DefaultFlushMin, DefaultFlushMax
	}
	if c.FlushMin < 0 {
		c.FlushMin = 0
	}
	if c.FlushMax < c.FlushMin {
		c.FlushMax = c.FlushMin
	}
	return c
}

// pendingStore is one buffered state transition awaiting commit.
type pendingStore struct {
	state     State
	tid       int
	site      trace.SiteID
	kind      trace.Kind
	at        sim.Time // when the store was issued
	visibleAt sim.Time // when it commits to shared memory
}

// tsoState is the heap's store-buffer machinery.
type tsoState struct {
	cfg TSOConfig
	rng *rand.Rand
	// lastVisible enforces per-thread FIFO drain: a store's deadline never
	// precedes an earlier store's deadline from the same thread.
	lastVisible map[int]sim.Time
}

// EnableTSO switches the heap to TSO semantics. Must be called before the
// first instrumented access, like SetHook. The flush generator is seeded
// with cfg.Seed; Release recycles it.
func (h *Heap) EnableTSO(cfg TSOConfig) {
	if h.accessed {
		panic("memmodel: EnableTSO after the first instrumented access")
	}
	ts := &h.mem.tso
	ts.cfg = cfg.withDefaults()
	ts.rng = sim.NewRand(ts.cfg.Seed)
	clear(ts.lastVisible)
	h.tso = ts
}

// TSOEnabled reports whether the heap runs under TSO semantics.
func (h *Heap) TSOEnabled() bool { return h.tso != nil }

// StaleReadError is the weak-memory analog of NullRefError: a fresh read
// (Ref.UseFresh) observed a state that diverges from the coherent one
// because another thread's store is still sitting in its store buffer — a
// stale read a fence after the blamed store would forbid.
type StaleReadError struct {
	Obj      trace.ObjID
	Name     string       // the reference's declared name
	Site     trace.SiteID // where the stale read happened
	Observed State        // what the read saw
	Coherent State        // what a fully fenced execution would have seen
	// The blamed store: the oldest other-thread store still buffered at
	// the read — the write a repair fence must flush before this read.
	PendingSite trace.SiteID
	PendingKind trace.Kind
	PendingTID  int
	VisibleAt   sim.Time // when the blamed store would have committed
}

// Error implements error.
func (e *StaleReadError) Error() string {
	return fmt.Sprintf("StaleReadException: read of %q (obj %d) at %s observed %s while %s at %s is buffered (coherent %s, commits at %dus)",
		e.Name, e.Obj, e.Site, e.Observed, e.PendingKind, e.PendingSite, e.Coherent, int64(e.VisibleAt))
}

// flushDelayKey is the TLS slot injectors use to stretch the commit
// latency of a thread's next buffered store.
const flushDelayKey sim.TLSKey = "memmodel.tso.flushdelay"

// AddFlushDelay arranges for thread t's next buffered store to commit an
// extra d later than its drawn latency — the TSO analog of injecting a
// sleep: the store's visibility is delayed, the thread's timing is not.
// The pending extra is consumed (and cleared) by that next store; without
// a TSO heap it is a no-op.
func AddFlushDelay(t *sim.Thread, d sim.Duration) {
	if d <= 0 {
		return
	}
	if cur, ok := t.TLS(flushDelayKey).(sim.Duration); ok && cur > 0 {
		d += cur
	}
	t.SetTLS(flushDelayKey, d)
}

// takeFlushDelay consumes the thread's pending flush extra.
func takeFlushDelay(t *sim.Thread) sim.Duration {
	if cur, ok := t.TLS(flushDelayKey).(sim.Duration); ok && cur > 0 {
		t.SetTLS(flushDelayKey, sim.Duration(0))
		return cur
	}
	return 0
}

// buffer enqueues a state transition in t's store buffer. A store whose
// deadline is not in the future (zero-latency config, no flush extra)
// applies immediately — the degenerate buffer that makes TSO-with-zero-
// latency bit-identical to sequential consistency.
func (r *Ref) buffer(t *sim.Thread, site trace.SiteID, kind trace.Kind, st State) {
	ts := r.heap.tso
	lat := ts.cfg.FlushMin
	if span := int64(ts.cfg.FlushMax - ts.cfg.FlushMin); span > 0 {
		lat += sim.Duration(ts.rng.Int63n(span + 1))
	}
	now := t.Now()
	vis := now.Add(lat + takeFlushDelay(t))
	if lv := ts.lastVisible[t.ID()]; vis < lv {
		vis = lv // FIFO: never drain ahead of an earlier store
	}
	if vis <= now {
		r.state = st
		return
	}
	ts.lastVisible[t.ID()] = vis
	r.pending = append(r.pending, pendingStore{
		state: st, tid: t.ID(), site: site, kind: kind, at: now, visibleAt: vis,
	})
}

// commitMature applies every buffered store whose deadline has passed, in
// deadline order (ties break by issue order). Called lazily at each
// access, so shared memory is always up to date before a state is read.
func (r *Ref) commitMature(now sim.Time) {
	for len(r.pending) > 0 {
		best := -1
		for i := range r.pending {
			if r.pending[i].visibleAt > now {
				continue
			}
			if best < 0 || r.pending[i].visibleAt < r.pending[best].visibleAt {
				best = i
			}
		}
		if best < 0 {
			return
		}
		r.state = r.pending[best].state
		r.pending = append(r.pending[:best], r.pending[best+1:]...)
	}
}

// observed returns the state thread tid reads: its own newest buffered
// store when one exists (store-to-load forwarding), else shared memory.
func (r *Ref) observed(tid int) State {
	st := r.state
	for _, ps := range r.pending {
		if ps.tid == tid {
			st = ps.state
		}
	}
	return st
}

// coherent returns the state a fully fenced (store-order-consistent)
// execution would read: shared memory with every buffered store applied in
// issue order.
func (r *Ref) coherent() State {
	st := r.state
	for _, ps := range r.pending {
		st = ps.state
	}
	return st
}

// staleBlame returns the oldest other-thread buffered store — the write a
// fence must flush to make tid's read fresh. Only meaningful when
// observed(tid) diverges from coherent(), which implies such a store
// exists.
func (r *Ref) staleBlame(tid int) *pendingStore {
	for i := range r.pending {
		if r.pending[i].tid != tid {
			return &r.pending[i]
		}
	}
	return nil
}

// UseFresh executes a member access that expects a fence-fresh view: if
// the observed state diverges from the coherent state — another thread's
// Init or Dispose is still buffered — the thread raises a StaleReadError
// naming the buffered store a repair fence must flush. When the view is
// coherent it behaves like UseIfLive (no lifecycle fault), returning
// whether the reference was live. Without TSO mode there is no staleness,
// so it degenerates to UseIfLive exactly.
func (r *Ref) UseFresh(t *sim.Thread, site trace.SiteID) bool {
	r.enter(t, site, trace.KindUse, 0)
	if r.heap.tso == nil {
		return r.state == StateLive
	}
	r.commitMature(t.Now())
	obs := r.observed(t.ID())
	if coh := r.coherent(); obs != coh {
		blame := r.staleBlame(t.ID())
		t.Throw(&StaleReadError{
			Obj: r.id, Name: r.name, Site: site,
			Observed: obs, Coherent: coh,
			PendingSite: blame.site, PendingKind: blame.kind,
			PendingTID: blame.tid, VisibleAt: blame.visibleAt,
		})
	}
	return obs == StateLive
}

// Fence drains thread t's store buffer: every store t issued commits now
// (an mfence/full barrier at t's current point). Mature foreign stores
// commit as a side effect of the lazy drain; immature ones stay buffered.
// A no-op without TSO mode — fenced programs run unchanged under SC.
func (h *Heap) Fence(t *sim.Thread) {
	if h.tso == nil {
		return
	}
	now := t.Now()
	for _, r := range h.refs {
		fenced := false
		for i := range r.pending {
			if r.pending[i].tid == t.ID() {
				r.pending[i].visibleAt = now
				fenced = true
			}
		}
		if fenced || len(r.pending) > 0 {
			r.commitMature(now)
		}
	}
	if lv := h.tso.lastVisible[t.ID()]; lv > now {
		h.tso.lastVisible[t.ID()] = now
	}
}
