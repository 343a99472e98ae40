// Package trace defines the execution-trace model shared by every tool in
// this repository: the events Waffle's instrumenter emits during the
// preparation run, the recorder that captures them, and codecs that persist
// traces between the preparation and detection phases (§4.2, Figure 3).
//
// An event is one instrumented operation on a heap object: who (thread),
// where (static site), what (object id + access kind), and when (virtual
// timestamp plus the thread's fork vector clock). The trace analyzer in
// internal/core consumes exactly this stream.
package trace

import (
	"fmt"

	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// SiteID names a static program location — the analog of an instrumented
// IL offset in the paper's Mono.Cecil instrumenter. Applications label
// their access sites with stable strings such as "netmq/poller.go:11".
type SiteID string

// ObjID identifies one heap object (reference cell) instance.
type ObjID int64

// Kind classifies an instrumented operation per §3.1: an operation turning
// a reference from NULL to non-NULL is an initialization; non-NULL to NULL
// (or an explicit Dispose call) is a disposal; member-field access or
// member-method call is a use. API kinds mark call sites of thread-unsafe
// APIs, the locations TSVD instruments (§2).
type Kind uint8

const (
	// KindInit marks an object initialization (NULL → non-NULL).
	KindInit Kind = iota
	// KindUse marks a field access or member-method call.
	KindUse
	// KindDispose marks a disposal (non-NULL → NULL or Dispose()).
	KindDispose
	// KindAPIRead marks a thread-unsafe API call that only reads.
	KindAPIRead
	// KindAPIWrite marks a thread-unsafe API call that mutates.
	KindAPIWrite
)

// IsMemOrder reports whether the kind participates in MemOrder analysis.
func (k Kind) IsMemOrder() bool { return k <= KindDispose }

// IsAPI reports whether the kind is a thread-unsafe API call (TSVD's domain).
func (k Kind) IsAPI() bool { return k == KindAPIRead || k == KindAPIWrite }

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindInit:
		return "init"
	case KindUse:
		return "use"
	case KindDispose:
		return "dispose"
	case KindAPIRead:
		return "api-read"
	case KindAPIWrite:
		return "api-write"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindFromString parses the wire name produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "init":
		return KindInit, nil
	case "use":
		return KindUse, nil
	case "dispose":
		return KindDispose, nil
	case "api-read":
		return KindAPIRead, nil
	case "api-write":
		return KindAPIWrite, nil
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// Event is one instrumented operation.
type Event struct {
	Seq   int           // position in the trace, dense from 0
	T     sim.Time      // virtual timestamp at the start of the operation
	TID   int           // executing thread
	Site  SiteID        // static location
	Obj   ObjID         // object operated on
	Kind  Kind          // operation class
	Dur   sim.Duration  // execution window (nonzero for API calls)
	Clock *vclock.Clock // thread's fork clock at the event, may be nil
}

// Trace is an ordered event sequence plus run metadata.
type Trace struct {
	Label  string   // free-form: app/test name
	Seed   int64    // world seed of the recorded run
	End    sim.Time // virtual end time of the run
	Events []Event
}

// Recorder accumulates events during a run. It implements the hook half of
// the preparation phase: no delays, just logging. The zero value is ready.
//
// A run's events reach the Recorder from one writer at a time (the sim
// thread holding the baton) and already in global order, so they go into
// a single chunked Shard: recording allocates nothing per event, never
// re-copies the recorded history the way slice doubling does, and a short
// run allocates only the shard's small first chunk. Finish copies the
// shard into one slice of exactly the recorded length.
type Recorder struct {
	label string
	seed  int64

	n     int // events recorded so far; also the next Seq
	shard Shard

	finished bool
}

// NewRecorder returns a Recorder with metadata filled in.
func NewRecorder(label string, seed int64) *Recorder {
	return &Recorder{label: label, seed: seed}
}

// Record captures one event from a sim thread, stamping Seq, timestamp, and
// the thread's current fork clock. It panics if the recorder was Finished.
func (r *Recorder) Record(t *sim.Thread, site SiteID, obj ObjID, kind Kind, dur sim.Duration) {
	r.RecordEvent(Event{
		T:     t.Now(),
		TID:   t.ID(),
		Site:  site,
		Obj:   obj,
		Kind:  kind,
		Dur:   dur,
		Clock: vclock.Of(t),
	})
}

// RecordEvent is the raw recording hot path: it stamps e.Seq with the next
// global position and appends e to the shard. Callers that are not sim
// threads (tests, fuzz-seed builders) fill the remaining fields
// themselves. It panics if the recorder was Finished.
func (r *Recorder) RecordEvent(e Event) {
	if r.finished {
		panic("trace: Record after Finish — a finished Recorder must not be reused")
	}
	e.Seq = r.n
	r.n++
	r.shard.Append(e)
}

// Finish copies the recorded events into one Seq-ordered slice, stamps the
// run's end time, and returns the completed trace. The recorder must not
// be reused afterwards: a second Finish, or any Record after Finish,
// panics.
func (r *Recorder) Finish(end sim.Time) *Trace {
	if r.finished {
		panic("trace: Finish called twice — a finished Recorder must not be reused")
	}
	r.finished = true
	var evs []Event
	if r.n > 0 {
		evs = r.shard.AppendTo(make([]Event, 0, r.n))
	}
	r.shard = Shard{}
	return &Trace{Label: r.label, Seed: r.seed, End: end, Events: evs}
}

// Len reports the number of recorded events so far.
func (r *Recorder) Len() int { return r.n }

// Stats summarizes a trace for reports and Table 2-style site counting.
type Stats struct {
	Events        int
	Threads       int
	Objects       int
	MemSites      int // unique static sites with MemOrder kinds
	APISites      int // unique static sites with API kinds
	InitEvents    int
	UseEvents     int
	DisposeEvents int
	APIEvents     int
	End           sim.Time
}

// ComputeStats scans the trace once and aggregates Stats.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Events: len(t.Events), End: t.End}
	threads := map[int]bool{}
	objects := map[ObjID]bool{}
	memSites := map[SiteID]bool{}
	apiSites := map[SiteID]bool{}
	for _, e := range t.Events {
		threads[e.TID] = true
		objects[e.Obj] = true
		switch {
		case e.Kind.IsMemOrder():
			memSites[e.Site] = true
		case e.Kind.IsAPI():
			apiSites[e.Site] = true
		}
		switch e.Kind {
		case KindInit:
			s.InitEvents++
		case KindUse:
			s.UseEvents++
		case KindDispose:
			s.DisposeEvents++
		case KindAPIRead, KindAPIWrite:
			s.APIEvents++
		}
	}
	s.Threads = len(threads)
	s.Objects = len(objects)
	s.MemSites = len(memSites)
	s.APISites = len(apiSites)
	return s
}

// TimeSorted reports whether the events appear in nondecreasing timestamp
// order. Recorder output is sorted by construction; externally loaded
// traces may not be, and the analyzer's windowed scans rely on sortedness
// to stop early.
func (t *Trace) TimeSorted() bool {
	for i := 1; i < len(t.Events); i++ {
		if t.Events[i].T < t.Events[i-1].T {
			return false
		}
	}
	return true
}

// DynamicInstances counts, per static site, how many times it executed.
// §3.3: the median for initialization sites is ~2 per run, which is why
// same-run identification cannot help MemOrder bugs.
func (t *Trace) DynamicInstances() map[SiteID]int {
	out := make(map[SiteID]int)
	for _, e := range t.Events {
		out[e.Site]++
	}
	return out
}
