package core

import (
	"slices"

	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// OnlineConfig selects which design points the online engine applies.
// TSVD (§2) and WaffleBasic (§3) share one configuration: same-run
// identification and injection, fixed-length delays, happens-before
// inference, no parent-child pruning, no interference control. They
// differ only in the pair rule: TSVD pairs thread-unsafe API calls,
// WaffleBasic MemOrder accesses. The "no preparation run" ablation of
// Table 7 is the Waffle-featured configuration under the MemOrder rule:
// variable lengths, fork-clock pruning, and online interference control —
// but identification still happens in the runs that inject.
type OnlineConfig struct {
	Options

	// VariableLengths injects α·gap delays instead of FixedDelay.
	VariableLengths bool
	// ParentChildPruning applies the fork-clock filter while identifying
	// candidates online.
	ParentChildPruning bool
	// InterferenceControl builds the interference relation online and
	// skips delays whose partners are in flight.
	InterferenceControl bool
	// HBInference removes candidate pairs when a delay at ℓ1 appears to
	// propagate as a stall of ℓ2's thread (§2). This inference turns
	// unreliable under delay overlap (§4.1) — the engine models that
	// failure mode faithfully by trusting the stall signal unconditionally.
	HBInference bool
	// HistoryDepth bounds the per-object access history consulted by
	// near-miss tracking. Zero means DefaultHistoryDepth.
	HistoryDepth int

	// apiPairs selects TSVD's pair rule (TSVDConfig) over the MemOrder
	// rule; see near.
	apiPairs bool
}

// DefaultHistoryDepth bounds per-object histories in the online engine.
const DefaultHistoryDepth = 32

// WaffleBasicConfig returns the configuration described in §3: TSVD's
// design transplanted onto MemOrder instrumentation sites.
func WaffleBasicConfig(opts Options) OnlineConfig {
	return OnlineConfig{Options: opts, HBInference: true}
}

// TSVDConfig returns TSVD's design (§2): WaffleBasic's configuration
// under TSVD's pair rule, over thread-unsafe API calls.
func TSVDConfig(opts Options) OnlineConfig {
	cfg := WaffleBasicConfig(opts)
	cfg.apiPairs = true
	return cfg
}

// NoPrepConfig returns the Table 7 "no preparation run" ablation: Waffle's
// other three design points, applied online.
func NoPrepConfig(opts Options) OnlineConfig {
	return OnlineConfig{
		Options:             opts,
		VariableLengths:     true,
		ParentChildPruning:  true,
		InterferenceControl: true,
	}
}

// histEv is one remembered access.
type histEv struct {
	site  trace.SiteID
	tid   int
	t     sim.Time
	kind  trace.Kind
	clock *vclock.Clock
}

// delayRec is the last completed delay at a site, kept for HB inference.
type delayRec struct {
	start, end sim.Time
	tid        int
	valid      bool
}

// Online is the same-run identification + injection engine: online
// near-miss identification as a candidate source for the Actuator. Under
// TSVD's pair rule a pair {a,b} is unordered: it enters S as the directed
// pairs a→b and b→a, so both ends delay, and leaves it in both directions
// at once.
// Candidate pairs, per-site gaps, the actuator's probabilities and
// interference rows, and HB-inference removals persist across runs (call
// BeginRun between runs); per-run histories reset.
//
// Like the Injector, the engine is clock-agnostic (it runs against any
// Exec). The actuator's mutex guards the engine's own state too, so
// concurrent live goroutines can share it; the lock is never held across
// an injected sleep.
type Online struct {
	*Actuator
	cfg OnlineConfig

	// Persistent across runs.
	pairs    map[pairKey]*Pair
	bySite   map[trace.SiteID][]*Pair // pairs keyed by delay site
	byTarget map[trace.SiteID][]*Pair // pairs keyed by target site
	lens     map[trace.SiteID]sim.Duration
	removed  map[pairKey]bool
	runs     int

	// Per-run state.
	objHist    map[trace.ObjID][]histEv
	threadHist map[int][]histEv
	lastAccess map[int]sim.Time
	seenAccess map[int]bool
	lastDelay  map[trace.SiteID]delayRec

	mHBRemoved *obs.Counter // online.pairs_removed_hb
}

// NewOnline returns an engine with empty persistent state. Call BeginRun
// before each run.
func NewOnline(cfg OnlineConfig) *Online {
	cfg.Options = cfg.Options.WithDefaults()
	if cfg.HistoryDepth <= 0 {
		cfg.HistoryDepth = DefaultHistoryDepth
	}
	return &Online{
		Actuator:   NewActuator(make(map[trace.SiteID]float64), make(map[trace.SiteID][]trace.SiteID), cfg.Metrics),
		cfg:        cfg,
		pairs:      make(map[pairKey]*Pair),
		bySite:     make(map[trace.SiteID][]*Pair),
		byTarget:   make(map[trace.SiteID][]*Pair),
		lens:       make(map[trace.SiteID]sim.Duration),
		removed:    make(map[pairKey]bool),
		mHBRemoved: cfg.Metrics.Counter("online.pairs_removed_hb"),
	}
}

// BeginRun resets per-run state, keeping the learned candidate set.
func (o *Online) BeginRun() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.runs++
	o.objHist = make(map[trace.ObjID][]histEv)
	o.threadHist = make(map[int][]histEv)
	o.lastAccess = make(map[int]sim.Time)
	o.seenAccess = make(map[int]bool)
	o.lastDelay = make(map[trace.SiteID]delayRec)
	o.stats = DelayStats{}
}

// CurrentOptions implements Retunable.
func (o *Online) CurrentOptions() Options {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cfg.Options
}

// SetOptions implements Retunable: swaps the numeric engine options
// (alpha, decay, window, costs) under the engine lock. The design-point
// flags in OnlineConfig and the metrics wiring are fixed at construction:
// instrument handles were resolved then, so a different Metrics registry
// in opts is ignored.
func (o *Online) SetOptions(opts Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	opts = opts.WithDefaults()
	opts.Metrics = o.cfg.Metrics
	o.cfg.Options = opts
}

// LiveSites implements SiteProber: delay sites that still have an
// un-removed candidate pair and positive probability.
func (o *Online) LiveSites() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for site, p := range o.probs {
		if p > 0 && o.siteLive(site) {
			n++
		}
	}
	return n
}

// Runs reports how many runs have begun.
func (o *Online) Runs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.runs
}

// Pairs returns a snapshot of the live candidate set S, sorted by (Delay,
// Target, Kind) as a plan's pairs are.
func (o *Online) Pairs() []Pair {
	o.mu.Lock()
	out := make([]Pair, 0, len(o.pairs))
	for k, p := range o.pairs {
		if !o.removed[k] {
			out = append(out, *p)
		}
	}
	o.mu.Unlock()
	slices.SortFunc(out, comparePairs)
	return out
}

// Candidates returns the live pairs whose delay or target site is site, in
// Pairs order: the candidates a bug report at site lists.
func (o *Online) Candidates(site trace.SiteID) []Pair {
	var out []Pair
	for _, p := range o.Pairs() {
		if p.Delay == site || p.Target == site {
			out = append(out, p)
		}
	}
	return out
}

// InjectionSiteCount reports the number of distinct delay sites ever
// admitted to S (Table 2's "Injection Sites" metric), whatever their gaps.
func (o *Online) InjectionSiteCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.bySite)
}

// OnAccess implements memmodel.Hook — the simulator entry point.
func (o *Online) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	o.Access(t, site, obj, kind, dur)
}

// Access is the clock-agnostic hook body. Order of duties mirrors
// WaffleBasic: instrumentation cost, HB-inference bookkeeping, the
// delay-or-not decision for already-known candidate sites, then near-miss
// identification using the post-delay timestamp.
func (o *Online) Access(e Exec, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if o.cfg.apiPairs && !kind.IsAPI() {
		return // TSVD instruments thread-unsafe API calls only
	}
	if o.cfg.InstrCost > 0 {
		e.Sleep(o.cfg.InstrCost)
	}
	if !o.cfg.apiPairs && !kind.IsMemOrder() {
		// Thread-unsafe API calls are outside the MemOrder rule's domain;
		// they only take up history depth.
		o.mu.Lock()
		o.noteAccess(e, site, obj, kind)
		o.mu.Unlock()
		return
	}
	o.maybeDelay(e, site)
	o.mu.Lock()
	var removed int64
	if o.cfg.HBInference {
		// The propagation check happens when ℓ2 actually executes — after
		// any delay injected at ℓ2 itself. That is precisely why overlap
		// blinds the heuristic (§4.1): a thread stalled by its own delay
		// is indistinguishable from one stalled by synchronization.
		removed = o.inferHappensBefore(e, site)
	}
	o.identify(e, site, obj, kind)
	o.noteAccess(e, site, obj, kind)
	o.mu.Unlock()
	o.mHBRemoved.Add(removed)
}

// maybeDelay runs the delay-or-not decision for one access: the engine's
// candidate check and delay length under the shared lock, then the
// actuator's step, which drops the lock across the sleep itself.
func (o *Online) maybeDelay(e Exec, site trace.SiteID) {
	o.mu.Lock()
	if !o.siteLive(site) {
		o.mu.Unlock()
		return
	}
	d := o.cfg.FixedDelay
	if o.cfg.VariableLengths {
		d = o.cfg.delayFor(o.lens[site])
	}
	if start, ok := o.injectLocked(e, site, d, o.cfg.Decay); ok {
		o.mu.Lock()
		o.lastDelay[site] = delayRec{start: start, end: start.Add(d), tid: e.ID(), valid: true}
		o.mu.Unlock()
	}
}

// siteLive reports whether site still delays for at least one live pair.
// Callers hold o.mu.
func (o *Online) siteLive(site trace.SiteID) bool {
	for _, p := range o.bySite[site] {
		if !o.removed[p.key()] {
			return true
		}
	}
	return false
}

// inferHappensBefore implements the TSVD-style heuristic (§2): if a delay
// injected at ℓ1 was followed by this thread staying silent for the whole
// delay window and then arriving at ℓ2 with {ℓ1,ℓ2} ∈ S, infer a
// happens-before edge and remove the pair. Under overlapping delays the
// stall may actually be another delay — the heuristic cannot tell (§4.1) —
// so pairs are removed spuriously; that is WaffleBasic's documented
// failure mode, reproduced here mechanically. It returns how many pairs
// it removed. Callers hold o.mu.
func (o *Online) inferHappensBefore(e Exec, site trace.SiteID) int64 {
	var removed int64
	now := e.Now()
	for _, p := range o.byTarget[site] {
		k := p.key()
		if o.removed[k] {
			continue
		}
		ld := o.lastDelay[p.Delay]
		if !ld.valid || ld.tid == e.ID() {
			continue
		}
		// The delay must have completed recently, and this thread must
		// have been silent across its whole window.
		if ld.end > now || now.Sub(ld.end) > o.cfg.Window {
			continue
		}
		if !o.seenAccess[e.ID()] {
			continue // a thread with no history cannot be judged stalled
		}
		if o.lastAccess[e.ID()] < ld.start {
			o.removed[k] = true
			if o.cfg.apiPairs {
				o.removed[pairKey{delay: k.target, target: k.delay, kind: k.kind}] = true
			}
			removed++
		}
	}
	return removed
}

// identify is online near-miss tracking: match the current access against
// the object's recent history (§3.1), updating S, gaps, probabilities, and
// (when enabled) interference edges. Callers hold o.mu.
func (o *Online) identify(e Exec, site trace.SiteID, obj trace.ObjID, kind trace.Kind) {
	now := e.Now()
	var clk *vclock.Clock
	if o.cfg.ParentChildPruning {
		clk = execClock(e)
	}
	for _, h := range o.objHist[obj] {
		if h.tid == e.ID() {
			continue
		}
		gap := now.Sub(h.t)
		bk, ok := o.near(h.kind, kind, gap)
		if !ok || o.cfg.ParentChildPruning && vclock.Ordered(h.clock, clk) {
			continue
		}
		o.admit(e, h.site, site, bk, gap, h.t, now)
		if o.cfg.apiPairs {
			o.admit(e, site, h.site, bk, gap, h.t, now)
		}
	}
}

// near is the pair rule: whether an earlier access of kind k1 and the
// current access of kind k2, gap later on another thread, form a candidate
// pair, and of which bug kind. TSVD's rule admits |gap| ≤ δ when either
// side is an API write; its pairs carry the zero kind. The MemOrder rule
// admits 0 ≤ gap < δ from an init to a use (use-before-init) or from a use
// to a disposal (use-after-free).
func (o *Online) near(k1, k2 trace.Kind, gap sim.Duration) (BugKind, bool) {
	if o.cfg.apiPairs {
		return 0, max(gap, -gap) <= o.cfg.Window && (k1 == trace.KindAPIWrite || k2 == trace.KindAPIWrite)
	}
	switch {
	case gap < 0 || gap >= o.cfg.Window:
		return 0, false
	case k1 == trace.KindInit && k2 == trace.KindUse:
		return UseBeforeInit, true
	case k1 == trace.KindUse && k2 == trace.KindDispose:
		return UseAfterFree, true
	}
	return 0, false
}

// admit adds or refreshes a candidate pair discovered online. Callers hold
// o.mu.
func (o *Online) admit(e Exec, delaySite, targetSite trace.SiteID, bk BugKind, gap sim.Duration, t1, t2 sim.Time) {
	k := pairKey{delay: delaySite, target: targetSite, kind: bk}
	if o.removed[k] {
		return
	}
	p, ok := o.pairs[k]
	if !ok {
		p = &Pair{Delay: delaySite, Target: targetSite, Kind: bk}
		o.pairs[k] = p
		o.bySite[delaySite] = append(o.bySite[delaySite], p)
		o.byTarget[targetSite] = append(o.byTarget[targetSite], p)
		if _, seen := o.probs[delaySite]; !seen {
			o.probs[delaySite] = 1.0
		}
	}
	p.Count++
	if gap > p.Gap {
		p.Gap = gap
	}
	if gap > o.lens[delaySite] {
		o.lens[delaySite] = gap
	}
	if o.cfg.InterferenceControl {
		// Current thread is ℓ2's thread: any candidate site it exercised
		// in [τ1−δ, τ2) interferes with ℓ1 (§4.4, applied online).
		lo := t1.Add(-o.cfg.Window)
		for _, h := range o.threadHist[e.ID()] {
			if h.t < lo || h.t > t2 {
				continue
			}
			if _, isInj := o.lens[h.site]; isInj {
				o.addInterference(delaySite, h.site)
			}
		}
	}
}

// noteAccess appends the access to the object and thread histories.
// Callers hold o.mu.
func (o *Online) noteAccess(e Exec, site trace.SiteID, obj trace.ObjID, kind trace.Kind) {
	now := e.Now()
	ev := histEv{site: site, tid: e.ID(), t: now, kind: kind, clock: execClock(e)}
	o.objHist[obj] = appendBounded(o.objHist[obj], ev, o.cfg.HistoryDepth)
	o.threadHist[e.ID()] = appendBounded(o.threadHist[e.ID()], ev, o.cfg.HistoryDepth)
	o.lastAccess[e.ID()] = now
	o.seenAccess[e.ID()] = true
}

// appendBounded appends keeping at most depth entries (oldest dropped).
func appendBounded(h []histEv, ev histEv, depth int) []histEv {
	h = append(h, ev)
	if len(h) > depth {
		copy(h, h[1:])
		h = h[:len(h)-1]
	}
	return h
}
