package core

import (
	"sync"

	"waffle/internal/memmodel"
	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Interval records one injected delay: where it was injected and the
// time span the thread slept (virtual ticks under the simulator, wall-clock
// nanoseconds under the live runtime). Intervals feed Table 6 (count and
// cumulative duration) and the §3.3 overlap metric.
type Interval struct {
	Site  trace.SiteID
	Start sim.Time
	End   sim.Time
}

// Dur returns the interval's length.
func (iv Interval) Dur() sim.Duration { return iv.End.Sub(iv.Start) }

// DelayStats aggregates one run's injection activity.
type DelayStats struct {
	Count     int          // delays injected
	Total     sim.Duration // cumulative delay duration
	Skipped   int          // injections suppressed by interference control
	Intervals []Interval   // every injected delay
}

// add records one completed delay.
func (s *DelayStats) add(iv Interval) {
	s.Count++
	s.Total += iv.Dur()
	s.Intervals = append(s.Intervals, iv)
}

// Clone returns a copy whose Intervals slice shares nothing with the
// receiver. Stats accessors must hand this out rather than a shallow copy:
// the live runtime reads stats after a timed-out run while leaked
// goroutines keep appending to the engine's backing array, so an aliased
// slice is a data race and can even surface foreign intervals in the copy
// when the append grows in place.
func (s DelayStats) Clone() DelayStats {
	s.Intervals = append([]Interval(nil), s.Intervals...)
	return s
}

// injectMetrics are the injection-engine instrument handles, resolved once
// at engine construction. All fields are nil without a registry — every
// emit is then a single nil-check (the benchmarked disabled fast path).
type injectMetrics struct {
	injected   *obs.Counter   // inject.delays_injected
	ticksTotal *obs.Counter   // inject.delay_ticks_total
	skipped    *obs.Counter   // inject.delays_skipped_interference
	floorHits  *obs.Counter   // inject.decay_floor_hits
	delayTicks *obs.Histogram // inject.delay_ticks
}

func newInjectMetrics(r *obs.Registry) injectMetrics {
	return injectMetrics{
		injected:   r.Counter("inject.delays_injected"),
		ticksTotal: r.Counter("inject.delay_ticks_total"),
		skipped:    r.Counter("inject.delays_skipped_interference"),
		floorHits:  r.Counter("inject.decay_floor_hits"),
		delayTicks: r.Histogram("inject.delay_ticks", obs.DelayBuckets),
	}
}

// observeDelay records one completed delay interval.
func (m *injectMetrics) observeDelay(iv Interval) {
	m.injected.Inc()
	m.ticksTotal.Add(int64(iv.Dur()))
	m.delayTicks.Observe(int64(iv.Dur()))
}

// Injector is Waffle's detection-run hook (§5, component 3). It injects
// delays at the plan's candidate sites using per-site variable lengths,
// probability decay, and interference-aware skipping. Probabilities decay
// in place on the shared Plan, which the Session persists between runs.
//
// The injector is clock-agnostic: it runs against any Exec, so the same
// engine drives simulated threads on virtual time and live goroutines on
// the wall clock. Its mutable state is mutex-guarded — the lock is held
// only around decisions and bookkeeping, never across the injected sleep,
// so concurrent live threads delay in parallel exactly as the paper's
// threads do. Under the single-batoned simulator the lock is uncontended
// and the behavior is bit-identical to a lock-free engine.
type Injector struct {
	opts Options
	mu   sync.Mutex // guards plan.Probs, stats, active, activeTotal
	plan *Plan

	stats DelayStats
	met   injectMetrics

	// active counts in-flight delays per site; interference control
	// consults it before injecting.
	active map[trace.SiteID]int
	// activeTotal avoids scanning when nothing is in flight.
	activeTotal int

	// flushSites are the delay sites of the plan's StaleRead pairs: stores
	// whose *visibility* is delayed (memmodel.AddFlushDelay) instead of
	// the issuing thread. Empty outside TSO mode.
	flushSites map[trace.SiteID]bool
}

// NewInjector returns a detection hook for plan. The plan's Probs map is
// mutated by probability decay as the run proceeds.
func NewInjector(plan *Plan, opts Options) *Injector {
	opts = opts.WithDefaults()
	in := &Injector{
		opts:   opts,
		plan:   plan,
		met:    newInjectMetrics(opts.Metrics),
		active: make(map[trace.SiteID]int),
	}
	for _, p := range plan.Pairs {
		if p.Kind == StaleRead {
			if in.flushSites == nil {
				in.flushSites = make(map[trace.SiteID]bool)
			}
			in.flushSites[p.Delay] = true
		}
	}
	return in
}

// Stats returns the injection activity recorded so far. The returned copy
// owns its Intervals slice — callers may read it while the injector keeps
// recording (live runs leak delayed goroutines past their timeout).
func (in *Injector) Stats() DelayStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats.Clone()
}

// OnAccess implements memmodel.Hook — the simulator entry point. Stores at
// a StaleRead candidate site take the flush-delay path: the delay lands on
// the store's commit, not on the thread, because every StaleRead pair is
// fork-ordered — sleeping the writer would shift the whole forked subtree
// (reader included) and never widen the stale window.
func (in *Injector) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if len(in.flushSites) > 0 && (kind == trace.KindInit || kind == trace.KindDispose) && in.flushSites[site] {
		in.flushAccess(t, site)
		return
	}
	in.Access(t, site, obj, kind, dur)
}

// flushAccess injects a visibility delay: the thread's next buffered store
// (the very access being hooked) commits opts.Alpha·gap later than its
// drawn latency. Probability decays immediately — the sleep-path decay
// waits out the delay to learn whether it exposed, but a flush delay never
// blocks this thread, so there is nothing to wait for; a run it exposes
// ends the search before the decayed value is ever consulted. Flush delays
// skip interference bookkeeping: they occupy no thread time, so they
// cannot cancel (or be cancelled by) any concurrent delay — §4.4's
// blocked-thread hazard has no analog here.
func (in *Injector) flushAccess(t *sim.Thread, site trace.SiteID) {
	if in.opts.InstrCost > 0 {
		t.Sleep(in.opts.InstrCost)
	}
	in.mu.Lock()
	gapLen, isCandidate := in.plan.DelayLen[site]
	if !isCandidate {
		in.mu.Unlock()
		return
	}
	p := in.plan.Probs[site]
	if p <= 0 {
		in.mu.Unlock()
		return
	}
	if t.Rand() >= p {
		in.mu.Unlock()
		return
	}
	d := in.opts.delayFor(gapLen)
	now := t.Now()
	iv := Interval{Site: site, Start: now, End: now.Add(d)}
	in.stats.add(iv)
	np := p - in.opts.Decay
	if np < 0 {
		np = 0
	}
	if np == 0 && p > 0 {
		in.met.floorHits.Inc()
	}
	in.plan.Probs[site] = np
	in.mu.Unlock()
	in.met.observeDelay(iv)
	memmodel.AddFlushDelay(t, d)
}

// Access is the clock-agnostic hook body: charge instrumentation overhead,
// then decide whether to pause the thread before the access executes.
func (in *Injector) Access(e Exec, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if in.opts.InstrCost > 0 {
		e.Sleep(in.opts.InstrCost)
	}
	in.mu.Lock()
	gapLen, isCandidate := in.plan.DelayLen[site]
	if !isCandidate {
		in.mu.Unlock()
		return
	}
	p := in.plan.Probs[site]
	if p <= 0 {
		in.mu.Unlock()
		return
	}
	if e.Rand() >= p {
		in.mu.Unlock()
		return
	}
	if !in.opts.DisableInterferenceControl && in.interferenceLive(site) {
		// §4.4: a delay planned for this site is skipped — not decayed —
		// while an interfering delay is ongoing in another thread.
		in.stats.Skipped++
		in.mu.Unlock()
		in.met.skipped.Inc()
		return
	}

	d := in.opts.delayFor(gapLen)
	start := e.Now()
	in.active[site]++
	in.activeTotal++
	in.mu.Unlock()
	// Release and record via defer: a bug-exposing delay tears this thread
	// down mid-Sleep (the teardown unwinds through this frame). A counter
	// that stays live would make every other thread treat the faulted
	// site's delay as ongoing, spuriously skipping injections — and an
	// interval recorded up front as [start, start+d] would overcount
	// Table 6's cumulative delay and the §3.3 overlap metric when the
	// sleep is truncated by a fault or a cancelled run. During the
	// unwind e.Now() reflects the teardown point, so clamping to
	// [start, start+d] charges exactly the time actually slept.
	defer func() {
		end := e.Now()
		if lim := start.Add(d); end > lim {
			end = lim
		}
		if end < start {
			end = start
		}
		iv := Interval{Site: site, Start: start, End: end}
		in.mu.Lock()
		in.active[site]--
		in.activeTotal--
		in.stats.add(iv)
		in.mu.Unlock()
		in.met.observeDelay(iv)
	}()
	e.Sleep(d)

	// The delay completed without the run faulting in this thread (a fault
	// would have torn it down mid-sleep): this attempt failed to expose a
	// bug, so the site's future injection probability decays (§2, §4.4).
	np := p - in.opts.Decay
	if np < 0 {
		np = 0
	}
	if np == 0 && p > 0 {
		in.met.floorHits.Inc()
	}
	in.mu.Lock()
	in.plan.Probs[site] = np
	in.mu.Unlock()
}

// interferenceLive reports whether any site interfering with site has a
// delay currently in flight. Callers hold in.mu.
func (in *Injector) interferenceLive(site trace.SiteID) bool {
	if in.activeTotal == 0 {
		return false
	}
	for _, other := range in.plan.Interfere[site] {
		if in.active[other] > 0 {
			return true
		}
	}
	return false
}

// PrepHook is the preparation-run hook: it records the trace and charges
// instrumentation plus logging overhead, but never injects (§4.2).
type PrepHook struct {
	rec  *trace.Recorder
	cost sim.Duration
}

// NewPrepHook wraps rec with the configured preparation-run overhead.
func NewPrepHook(rec *trace.Recorder, opts Options) *PrepHook {
	opts = opts.WithDefaults()
	return &PrepHook{rec: rec, cost: opts.InstrCost + opts.TraceCost}
}

// OnAccess implements memmodel.Hook.
func (p *PrepHook) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if p.cost > 0 {
		t.Sleep(p.cost)
	}
	p.rec.Record(t, site, obj, kind, dur)
}
