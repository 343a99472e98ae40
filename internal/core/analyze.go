package core

import (
	"sort"

	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// Analyze implements Waffle's trace analyzer (§5, component 2): from one
// unperturbed preparation-run trace it constructs the candidate set S
// (near-miss pairs surviving parent-child pruning), the per-site delay
// lengths, and the interference set I.
func Analyze(tr *trace.Trace, opts Options) *Plan {
	opts = opts.WithDefaults()
	defer opts.Metrics.Span("phase.analyze").Time()()
	opts.Metrics.Counter("analyze.trace_events").Add(int64(len(tr.Events)))

	// Pass 1: near-miss candidate pairs per object (§3.1, §4.1).
	acc := pairAccum{
		opts:   opts,
		pairs:  make(map[pairKey]*Pair),
		pruned: opts.Metrics.Counter("analyze.pairs_pruned"),
	}
	for _, idxs := range tr.ByObject() {
		acc.scanObject(tr.Events, idxs)
	}
	plan := assemblePlan(tr.Label, opts, acc.pairs)

	// Pass 3: the interference set I (§4.4).
	byThread := make(map[int][]int)
	for i, e := range tr.Events {
		byThread[e.TID] = append(byThread[e.TID], i)
	}
	es := make(edgeSet)
	for _, inst := range acc.instances {
		instanceEdges(tr, byThread, plan.Probs, inst, opts.Window, es)
	}
	es.fill(plan)
	meterPlan(opts.Metrics, plan)
	return plan
}

// meterPlan publishes a finished plan's shape: candidate pairs admitted to
// S and (symmetric, counted once per unordered pair) interference edges.
func meterPlan(r *obs.Registry, plan *Plan) {
	if r == nil {
		return
	}
	r.Counter("analyze.candidate_pairs").Add(int64(len(plan.Pairs)))
	var edges int64
	for a, others := range plan.Interfere {
		for _, b := range others {
			if a <= b {
				edges++
			}
		}
	}
	r.Counter("analyze.interference_edges").Add(edges)
}

// instance is one dynamic occurrence of a candidate pair: its delay site
// plus the Seq positions of its two events. Instances drive pass 3, which
// inspects the trace around each occurrence.
type instance struct {
	delay  trace.SiteID
	e1, e2 int // event indexes into the trace
}

// nearMiss applies the §3.1/§4.1 candidate rules to an ordered event pair
// (e1 precedes e2 in the trace): a use within δ after another thread's
// initialization is a use-before-init candidate, a disposal within δ after
// another thread's use is a use-after-free candidate, and pairs ordered by
// fork-propagated vector clocks are pruned unless the parent-child
// ablation is active. pruned counts dynamic near-miss instances the
// fork-clock rule rejected — pairs that would have entered S without
// §4.1's parent-child analysis; it only observes, and may be nil.
func nearMiss(e1, e2 *trace.Event, opts Options, pruned *obs.Counter) (BugKind, bool) {
	var kind BugKind
	staleOnly := false // pair shape exists only as a TSO stale-read candidate
	switch {
	case e1.Kind == trace.KindInit && e2.Kind == trace.KindUse:
		kind = UseBeforeInit
	case e1.Kind == trace.KindUse && e2.Kind == trace.KindDispose:
		kind = UseAfterFree
	case opts.TSO && e1.Kind == trace.KindDispose && e2.Kind == trace.KindUse:
		kind = StaleRead
		staleOnly = true
	default:
		return 0, false
	}
	if e1.TID == e2.TID {
		return 0, false
	}
	inWindow := func() bool {
		gap := e2.T.Sub(e1.T)
		return gap >= 0 && gap < opts.Window
	}
	if !opts.DisableParentChild && vclock.Ordered(e1.Clock, e2.Clock) {
		// Fork-ordered pairs cannot reorder, so they are never UBI/UAF
		// candidates — but under TSO an ordered cross-thread store→read
		// within the window is exactly where a buffered store can be
		// observed stale: the write commits late, not the write executes
		// late. (Use→Dispose stays pruned: the first access is a read;
		// there is no store whose visibility a flush delay could hold back.)
		if opts.TSO && kind != UseAfterFree && inWindow() {
			return StaleRead, true
		}
		// Count only instances the remaining rules would have admitted, so
		// the metric reads as "work the pruning rule actually saved".
		if !staleOnly && inWindow() {
			pruned.Inc()
		}
		return 0, false
	}
	if staleOnly || !inWindow() {
		// Unordered dispose→use is a plain race the SC rules already
		// model; the TSO shape is only meaningful on ordered pairs.
		return 0, false
	}
	return kind, true
}

// pairAccum accumulates pass-1 output: the candidate pairs and the dynamic
// instances feeding pass 3.
type pairAccum struct {
	opts  Options
	pairs map[pairKey]*Pair
	// pruned counts near-miss instances rejected by fork-clock ordering
	// (analyze.pairs_pruned); nil without a registry.
	pruned    *obs.Counter
	instances []instance
}

// observe feeds one ordered event pair through the near-miss rules.
func (pa *pairAccum) observe(e1, e2 *trace.Event) {
	kind, ok := nearMiss(e1, e2, pa.opts, pa.pruned)
	if !ok {
		return
	}
	k := pairKey{delay: e1.Site, target: e2.Site, kind: kind}
	p, ok := pa.pairs[k]
	if !ok {
		p = &Pair{Delay: e1.Site, Target: e2.Site, Kind: kind}
		pa.pairs[k] = p
	}
	p.Count++
	if gap := e2.T.Sub(e1.T); gap > p.Gap {
		p.Gap = gap
	}
	pa.instances = append(pa.instances, instance{delay: e1.Site, e1: e1.Seq, e2: e2.Seq})
}

// scanObject runs pass 1 over one object's event-index list. The list must
// be time-sorted (Recorder output is, by construction): the inner loop
// breaks out at the first event past the window, so an out-of-order list
// would hide later in-window pairs behind an early far-future event.
func (pa *pairAccum) scanObject(events []trace.Event, idxs []int) {
	for i, i1 := range idxs {
		e1 := &events[i1]
		if !e1.Kind.IsMemOrder() {
			continue
		}
		for _, i2 := range idxs[i+1:] {
			e2 := &events[i2]
			if e2.T.Sub(e1.T) >= pa.opts.Window {
				break
			}
			pa.observe(e1, e2)
		}
	}
}

// assemblePlan builds the plan skeleton: the sorted candidate set S, then
// pass 2's per-site delay lengths and initial injection probabilities.
func assemblePlan(label string, opts Options, pairs map[pairKey]*Pair) *Plan {
	plan := &Plan{
		Label:     label,
		Window:    opts.Window,
		DelayLen:  make(map[trace.SiteID]sim.Duration),
		Interfere: make(map[trace.SiteID][]trace.SiteID),
		Probs:     make(map[trace.SiteID]float64),
	}
	for _, p := range pairs {
		plan.Pairs = append(plan.Pairs, *p)
	}
	sort.Slice(plan.Pairs, func(i, j int) bool {
		a, b := plan.Pairs[i], plan.Pairs[j]
		if a.Delay != b.Delay {
			return a.Delay < b.Delay
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Kind < b.Kind
	})

	// Pass 2: per-site delay lengths — len(ℓ1) is the largest gap among
	// pairs delaying at ℓ1 (§4.3) — and initial injection probabilities.
	// The DelayLen entry is created even when the largest gap is zero
	// (simultaneous timestamps): the injector treats map membership as
	// "is a candidate", and delayFor floors the injected delay at
	// MinDelay, so a zero-gap candidate still receives a delay long
	// enough to flip the order instead of silently never being injected.
	for _, p := range plan.Pairs {
		if cur, ok := plan.DelayLen[p.Delay]; !ok || p.Gap > cur {
			plan.DelayLen[p.Delay] = p.Gap
		}
		plan.Probs[p.Delay] = 1.0
	}
	return plan
}

// edgeSet accumulates the symmetric interference relation I.
type edgeSet map[trace.SiteID]map[trace.SiteID]bool

func (es edgeSet) add(a, b trace.SiteID) {
	if es[a] == nil {
		es[a] = make(map[trace.SiteID]bool)
	}
	if es[b] == nil {
		es[b] = make(map[trace.SiteID]bool)
	}
	es[a][b] = true
	es[b][a] = true
}

// fill converts the edge set into the plan's sorted-list form.
func (es edgeSet) fill(plan *Plan) {
	for a, set := range es {
		out := make([]trace.SiteID, 0, len(set))
		for b := range set {
			out = append(out, b)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		plan.Interfere[a] = out
	}
}

// instanceEdges runs pass 3 (§4.4) for one dynamic candidate instance
// (ℓ1 at τ1, ℓ2 at τ2): any injection site ℓ* (a key of injection)
// exercised by ℓ2's thread in [τ1−δ, τ2] would, if delayed, block that
// thread and cancel a delay at ℓ1 — record (ℓ1, ℓ*) symmetrically.
// ℓ* == ℓ1 is excluded: another thread reaching the same site is the
// concurrency being provoked, not a cancellation, and a self-edge would
// make interferenceLive forbid concurrent delays at one site across
// threads — a restriction the paper's Fig. 5 window does not call for.
func instanceEdges(tr *trace.Trace, byThread map[int][]int, injection map[trace.SiteID]float64, inst instance, window sim.Duration, es edgeSet) {
	e1, e2 := &tr.Events[inst.e1], &tr.Events[inst.e2]
	lo := e1.T.Add(-window)
	tidEvents := byThread[e2.TID]
	// Binary search the first event of ℓ2's thread at or after lo.
	start := sort.Search(len(tidEvents), func(i int) bool {
		return tr.Events[tidEvents[i]].T >= lo
	})
	for _, ei := range tidEvents[start:] {
		e := &tr.Events[ei]
		if e.Seq >= e2.Seq {
			break
		}
		if _, ok := injection[e.Site]; ok && e.Site != inst.delay {
			es.add(inst.delay, e.Site)
		}
	}
}
