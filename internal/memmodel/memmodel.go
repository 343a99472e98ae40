// Package memmodel provides the managed-heap substrate that applications
// under test run against: reference cells with an explicit
// uninitialized → live → disposed lifecycle, a null-reference fault oracle,
// and the instrumentation seam every delay-injection tool in this
// repository plugs into.
//
// In the paper, Waffle's instrumenter rewrites a C# binary so that every
// member-field access and member-method call of a heap object transfers
// control to the runtime library before executing (§5). Here the seam is
// explicit instead of injected: applications perform object operations
// through Ref methods, and each operation first invokes the active Hook —
// which may record the access (preparation run) and/or inject a delay
// (detection run) — before the access executes and the lifecycle oracle
// checks it. Everything Waffle's algorithms consume (site, object, thread,
// timestamp, kind) flows through this one chokepoint, exactly as it does
// through the paper's proxy functions.
package memmodel

import (
	"fmt"

	"waffle/internal/sim"
	"waffle/internal/trace"
)

// State is a reference cell's lifecycle state.
type State uint8

const (
	// StateNil: the reference is NULL — allocated but not initialized,
	// or already disposed and nulled.
	StateNil State = iota
	// StateLive: the reference points to a constructed object.
	StateLive
	// StateDisposed: the object was explicitly disposed; member access
	// raises the same fault as a NULL dereference.
	StateDisposed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNil:
		return "nil"
	case StateLive:
		return "live"
	case StateDisposed:
		return "disposed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Hook observes (and may perturb) every instrumented operation. It runs in
// the accessing thread's context *before* the access executes, so it may
// call t.Sleep to inject a delay or t.Work to model instrumentation
// overhead — precisely the capabilities of the paper's runtime library.
type Hook interface {
	OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration)

// OnAccess implements Hook.
func (f HookFunc) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	f(t, site, obj, kind, dur)
}

// MultiHook fans one access out to several hooks in order.
type MultiHook []Hook

// OnAccess implements Hook.
func (m MultiHook) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	for _, h := range m {
		h.OnAccess(t, site, obj, kind, dur)
	}
}

// NullRefError is the unhandled NULL-reference exception — Waffle's bug
// oracle (§5: "Waffle reports a bug only when the target binary raises a
// NULL reference exception as a consequence of the delay injection").
type NullRefError struct {
	Obj   trace.ObjID
	Name  string       // the reference's declared name
	Site  trace.SiteID // where the faulting access happened
	Kind  trace.Kind   // what the access was
	State State        // the state the reference was found in
}

// Error implements error.
func (e *NullRefError) Error() string {
	return fmt.Sprintf("NullReferenceException: %s of %q (obj %d) at %s while reference is %s",
		e.Kind, e.Name, e.Obj, e.Site, e.State)
}

// TSV records one manifested thread-safety violation: two thread-unsafe
// API calls on the same object whose execution windows overlapped, at
// least one of them a write (§2). TSVs do not fault; internal/tsvd
// consumes them.
type TSV struct {
	Obj          trace.ObjID
	Site1, Site2 trace.SiteID
	TID1, TID2   int
	T            sim.Time
}

// Heap allocates reference cells and owns the active hook.
type Heap struct {
	hook     Hook
	nextID   trace.ObjID
	opCost   sim.Duration
	refs     []*Ref
	tso      *tsoState // non-nil after EnableTSO: store-buffer semantics
	accessed bool      // an instrumented access has executed

	active map[trace.ObjID][]apiWindow
	tsvs   []TSV
}

// Census summarizes the heap's reference population — the
// allocation-intensity view behind §6.4's "these three applications
// allocate a large number of objects at run time".
type Census struct {
	Allocated int // reference cells ever created
	Nil       int // never initialized (or nulled)
	Live      int
	Disposed  int
}

type apiWindow struct {
	tid   int
	site  trace.SiteID
	write bool
	end   sim.Time
}

// DefaultOpCost is the intrinsic virtual cost of one instrumented
// operation, applied whether or not a hook is installed (it is the
// application's own work, not instrumentation overhead).
const DefaultOpCost = 1 * sim.Microsecond

// NewHeap returns an empty heap with DefaultOpCost and no hook.
func NewHeap() *Heap {
	return &Heap{opCost: DefaultOpCost, active: make(map[trace.ObjID][]apiWindow)}
}

// SetHook installs the active instrumentation hook (nil for an
// uninstrumented baseline run). It panics once the first instrumented
// access has executed — the same install-before-use contract as
// trace.Recorder's post-Finish panic: a mid-run swap would silently drop
// accesses from whichever hook the caller thought was active, and in TSO
// mode would let an injector's flush bookkeeping vanish without a trace.
func (h *Heap) SetHook(hook Hook) {
	if h.accessed {
		panic("memmodel: SetHook after the first instrumented access")
	}
	h.hook = hook
}

// SetOpCost overrides the intrinsic per-operation cost.
func (h *Heap) SetOpCost(d sim.Duration) { h.opCost = d }

// TSVs returns the thread-safety violations manifested so far.
func (h *Heap) TSVs() []TSV { return h.tsvs }

// NewRef allocates a reference cell in StateNil. The name is a debugging
// label (e.g. "m_poller"); identity is the fresh ObjID.
func (h *Heap) NewRef(name string) *Ref {
	h.nextID++
	r := &Ref{heap: h, id: h.nextID, name: name}
	h.refs = append(h.refs, r)
	return r
}

// Census scans the reference population.
func (h *Heap) Census() Census {
	c := Census{Allocated: len(h.refs)}
	for _, r := range h.refs {
		switch r.state {
		case StateNil:
			c.Nil++
		case StateLive:
			c.Live++
		case StateDisposed:
			c.Disposed++
		}
	}
	return c
}

// Ref is one heap reference cell shared between threads of a World.
type Ref struct {
	heap  *Heap
	id    trace.ObjID
	name  string
	state State // shared-memory (committed) state
	// pending holds buffered-but-uncommitted state transitions in issue
	// order; always empty outside TSO mode.
	pending []pendingStore
}

// ID returns the cell's object id.
func (r *Ref) ID() trace.ObjID { return r.id }

// Name returns the debugging label.
func (r *Ref) Name() string { return r.name }

// State returns the current lifecycle state.
func (r *Ref) State() State { return r.state }

// IsLive reports whether the reference currently points to a live object —
// the analog of an application-level null/IsDisposed check.
func (r *Ref) IsLive() bool { return r.state == StateLive }

// enter runs the hook and charges the intrinsic op cost.
func (r *Ref) enter(t *sim.Thread, site trace.SiteID, kind trace.Kind, dur sim.Duration) {
	t.SetAccessOp(kind.String(), r.name, string(site))
	r.heap.accessed = true
	if r.heap.hook != nil {
		r.heap.hook.OnAccess(t, site, r.id, kind, dur)
	}
	if r.heap.opCost > 0 {
		t.Sleep(r.heap.opCost)
	}
}

// view resolves the state an access by thread t reads: under TSO, mature
// buffered stores commit first, then store-to-load forwarding applies;
// under SC it is simply the cell's state.
func (r *Ref) view(t *sim.Thread) State {
	if r.heap.tso == nil {
		return r.state
	}
	r.commitMature(t.Now())
	return r.observed(t.ID())
}

// Init executes an object initialization at site: the reference goes from
// NULL (or disposed) to live. Initializations never fault; re-initializing
// a live reference models reassignment and is permitted. Under TSO the
// transition enters the thread's store buffer rather than shared memory.
func (r *Ref) Init(t *sim.Thread, site trace.SiteID) {
	r.enter(t, site, trace.KindInit, 0)
	if r.heap.tso != nil {
		r.commitMature(t.Now())
		r.buffer(t, site, trace.KindInit, StateLive)
		return
	}
	r.state = StateLive
}

// Use executes a member-field access or member-method call at site. If the
// reference is not live the thread raises a NullRefError — the
// manifestation of a MemOrder bug (use-before-init when StateNil and never
// initialized; use-after-free when StateDisposed or nulled). Under TSO the
// check runs against the thread's observed state (shared memory plus its
// own buffered stores).
func (r *Ref) Use(t *sim.Thread, site trace.SiteID) {
	r.enter(t, site, trace.KindUse, 0)
	if st := r.view(t); st != StateLive {
		t.Throw(&NullRefError{Obj: r.id, Name: r.name, Site: site, Kind: trace.KindUse, State: st})
	}
}

// UseIfLive is a guarded use: it performs the instrumented access but
// returns false instead of faulting when the reference is not live. It
// models defensive application code (IsDisposed checks); the access is
// still visible to tools as a candidate location.
func (r *Ref) UseIfLive(t *sim.Thread, site trace.SiteID) bool {
	r.enter(t, site, trace.KindUse, 0)
	return r.view(t) == StateLive
}

// Dispose executes an object disposal at site (explicit Dispose() or
// nulling the reference). Disposing a non-live reference raises the same
// NULL-reference fault a double-dispose raises in C#. Under TSO the check
// runs against the observed state and the transition is buffered.
func (r *Ref) Dispose(t *sim.Thread, site trace.SiteID) {
	r.enter(t, site, trace.KindDispose, 0)
	if st := r.view(t); st != StateLive {
		t.Throw(&NullRefError{Obj: r.id, Name: r.name, Site: site, Kind: trace.KindDispose, State: st})
	}
	if r.heap.tso != nil {
		r.buffer(t, site, trace.KindDispose, StateDisposed)
		return
	}
	r.state = StateDisposed
}

// APICall executes a thread-unsafe API call with an execution window of
// roughly dur. If the window overlaps another thread's in-flight call on
// the same object and at least one of the two is a write, a TSV is
// recorded (§2's bug condition). API calls do not require the reference to
// be live — TSVD's domain is orthogonal to the lifecycle oracle.
func (r *Ref) APICall(t *sim.Thread, site trace.SiteID, write bool, dur sim.Duration) {
	kind := trace.KindAPIRead
	if write {
		kind = trace.KindAPIWrite
	}
	r.enter(t, site, kind, dur)

	start := t.Now()
	end := start.Add(t.World().Jitter(dur))
	// Sweep out expired windows, then check the live ones for conflicts.
	live := r.heap.active[r.id][:0]
	for _, w := range r.heap.active[r.id] {
		if w.end > start {
			live = append(live, w)
		}
	}
	for _, w := range live {
		if w.tid != t.ID() && (w.write || write) {
			r.heap.tsvs = append(r.heap.tsvs, TSV{
				Obj: r.id, Site1: w.site, Site2: site, TID1: w.tid, TID2: t.ID(), T: start,
			})
		}
	}
	r.heap.active[r.id] = append(live, apiWindow{tid: t.ID(), site: site, write: write, end: end})

	if end > start {
		t.Sleep(end.Sub(start))
	}
}
