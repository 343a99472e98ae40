package core

import (
	"sync"

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

// Actuator is the delay step that every design point of Table 1 shares
// (§4.4): draw against a site's probability, skip while an interfering
// delay is in flight, sleep, record the time slept, and decay the
// probability after a delay that exposed nothing. Candidate sources decide
// which sites are candidates and how long their delays are — the analyzed
// plan (Injector), online near-miss identification over MemOrder or TSVD's
// API pairs (Online), DataCollider's per-run sample, SingleDelay's one
// target — and hand each delay to the actuator.
//
// The actuator is clock-agnostic: it runs against any Exec, so the same
// code delays simulated threads on virtual time and live goroutines on
// the wall clock. Its state is mutex-guarded; the lock is held only around
// decisions and bookkeeping, never across the injected sleep, so
// concurrent live threads delay in parallel exactly as the paper's threads
// do. Under the single-batoned simulator the lock is uncontended.
type Actuator struct {
	mu sync.Mutex // guards the fields below; Online guards its own state with it too

	probs     map[trace.SiteID]float64        // per-site probability, decayed in place
	interfere map[trace.SiteID][]trace.SiteID // interference rows (§4.4)

	// active counts in-flight delays per site; activeTotal avoids scanning
	// the rows when nothing is in flight.
	active      map[trace.SiteID]int
	activeTotal int

	stats DelayStats
	met   injectMetrics
}

// NewActuator returns an actuator that draws against probs, decaying it in
// place, and skips a delay while a site in its interfere row has a delay
// in flight. Either map may be nil for a source that never draws or never
// skips. A nil registry leaves every metric handle nil.
func NewActuator(probs map[trace.SiteID]float64, interfere map[trace.SiteID][]trace.SiteID, reg *obs.Registry) *Actuator {
	return &Actuator{
		probs:     probs,
		interfere: interfere,
		active:    make(map[trace.SiteID]int),
		met:       newInjectMetrics(reg),
	}
}

// Stats returns the injection activity recorded so far. The returned copy
// owns its Intervals slice — callers may read it while the actuator keeps
// recording (live runs leak delayed goroutines past their timeout).
func (a *Actuator) Stats() DelayStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.Clone()
}

// Inject is the probabilistic step for one access at a candidate site. It
// draws against the site's probability, and skips without decaying while
// an interfering delay is in flight. Otherwise it sleeps d and, once the
// sleep completes, lowers the probability by decay. It reports when the
// delay started and whether it ran to completion; a fault that tears the
// thread down mid-delay unwinds through Inject and never returns.
func (a *Actuator) Inject(e Exec, site trace.SiteID, d sim.Duration, decay float64) (sim.Time, bool) {
	a.mu.Lock()
	return a.injectLocked(e, site, d, decay)
}

// injectLocked is Inject for a caller that already holds a.mu, having
// checked its own candidate state under it; injectLocked releases it.
func (a *Actuator) injectLocked(e Exec, site trace.SiteID, d sim.Duration, decay float64) (sim.Time, bool) {
	p, ok := a.draw(e, site)
	if !ok {
		a.mu.Unlock()
		return 0, false
	}
	if a.interfering(site) {
		// §4.4: a delay planned for this site is skipped — not decayed —
		// while an interfering delay is ongoing in another thread.
		a.stats.Skipped++
		a.mu.Unlock()
		a.met.skipped.Inc()
		return 0, false
	}
	start := a.delayLocked(e, site, d)
	// The delay completed without the run faulting in this thread (a fault
	// would have torn it down mid-sleep): this attempt failed to expose a
	// bug, so the site's future injection probability decays (§2, §4.4).
	a.decay(site, p, decay)
	return start, true
}

// Delay injects an unconditional delay of d at site: no draw, no skip, no
// decay — DataCollider's sampled sites and SingleDelay's target.
func (a *Actuator) Delay(e Exec, site trace.SiteID, d sim.Duration) {
	a.mu.Lock()
	a.delayLocked(e, site, d)
}

// flush is the probabilistic step for a delay that blocks no thread: the
// visibility delay of a buffered store (Options.TSO). It records
// [now, now+d] and decays at once — the sleep-path decay waits out the
// delay to learn whether it exposed, but a flush delay never blocks this
// thread, so there is nothing to wait for; a run it exposes ends the
// search before the decayed value is ever consulted. Flush delays take no
// part in interference control: they occupy no thread time, so they
// cannot cancel (or be cancelled by) any concurrent delay — §4.4's
// blocked-thread hazard has no analog here.
func (a *Actuator) flush(e Exec, site trace.SiteID, d sim.Duration, decay float64) bool {
	a.mu.Lock()
	p, ok := a.draw(e, site)
	if !ok {
		a.mu.Unlock()
		return false
	}
	now := e.Now()
	iv := Interval{Site: site, Start: now, End: now.Add(d)}
	a.stats.add(iv)
	a.mu.Unlock()
	a.met.observeDelay(iv)
	a.decay(site, p, decay)
	return true
}

// draw reads site's probability and draws against it. A site whose
// probability has decayed to 0 consumes no draw, so it leaves the run's
// random stream untouched. Callers hold a.mu.
func (a *Actuator) draw(e Exec, site trace.SiteID) (float64, bool) {
	p := a.probs[site]
	if p <= 0 || e.Rand() >= p {
		return p, false
	}
	return p, true
}

// interfering reports whether any site in site's interference row has a
// delay in flight. Callers hold a.mu.
func (a *Actuator) interfering(site trace.SiteID) bool {
	if a.activeTotal == 0 {
		return false
	}
	for _, other := range a.interfere[site] {
		if a.active[other] > 0 {
			return true
		}
	}
	return false
}

// addInterference adds the symmetric edge {x, y} to the interference
// rows, keeping each row free of duplicates. Callers hold a.mu.
func (a *Actuator) addInterference(x, y trace.SiteID) {
	a.interfere[x] = appendNew(a.interfere[x], y)
	a.interfere[y] = appendNew(a.interfere[y], x)
}

// appendNew appends s to row unless row already holds it.
func appendNew(row []trace.SiteID, s trace.SiteID) []trace.SiteID {
	for _, r := range row {
		if r == s {
			return row
		}
	}
	return append(row, s)
}

// delayLocked counts a delay at site in flight, releases a.mu, and sleeps
// d. It returns when the delay started.
func (a *Actuator) delayLocked(e Exec, site trace.SiteID, d sim.Duration) sim.Time {
	start := e.Now()
	a.active[site]++
	a.activeTotal++
	a.mu.Unlock()
	// Release and record via defer: a bug-exposing delay tears this thread
	// down mid-Sleep (the teardown unwinds through this frame). A counter
	// that stays live would make every other thread treat the faulted
	// site's delay as ongoing, spuriously skipping injections — and an
	// interval recorded up front as [start, start+d] would overcount
	// Table 6's cumulative delay and the §3.3 overlap metric when the
	// sleep is cut short by a fault or a cancelled run.
	defer a.release(e, site, start, d)
	e.Sleep(d)
	return start
}

// release ends the in-flight delay of length d begun at start and records
// it. During an unwind e.Now() is the teardown point, so clamping the end
// to start+d charges exactly the time slept; neither clock runs
// backwards, so the end never precedes start.
func (a *Actuator) release(e Exec, site trace.SiteID, start sim.Time, d sim.Duration) {
	iv := Interval{Site: site, Start: start, End: min(e.Now(), start.Add(d))}
	a.mu.Lock()
	a.active[site]--
	a.activeTotal--
	a.stats.add(iv)
	a.mu.Unlock()
	a.met.observeDelay(iv)
}

// decay lowers site's probability by by from p, the value the draw read,
// flooring it at 0.
func (a *Actuator) decay(site trace.SiteID, p, by float64) {
	np := max(p-by, 0)
	a.mu.Lock()
	a.probs[site] = np
	a.mu.Unlock()
	if np == 0 {
		a.met.floorHits.Inc()
	}
}
