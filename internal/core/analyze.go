package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// Analyze implements Waffle's trace analyzer (§5, component 2): from one
// unperturbed preparation-run trace it constructs the candidate set S
// (near-miss pairs surviving parent-child pruning), the per-site delay
// lengths, and the interference set I.
//
// The passes work on event positions and flat slices. Pass 1 sorts its
// near-miss instances so that each candidate pair's instances are
// adjacent and S comes out in order; pass 3 numbers only the trace's
// injection sites, in name order, and records I over those numbers.
func Analyze(tr *trace.Trace, opts Options) *Plan {
	opts = opts.WithDefaults()
	defer opts.Metrics.Span("phase.analyze").Time()()
	opts.Metrics.Counter("analyze.trace_events").Add(int64(len(tr.Events)))

	// Pass 1: near-miss candidate instances per object (§3.1, §4.1).
	insts := nearMisses(tr.Events, opts)
	// S, and pass 2's delay lengths and probabilities.
	plan, sites := assemblePlan(tr.Label, opts, tr.Events, insts)
	// Pass 3: the interference set I (§4.4).
	hits := interferenceHits(tr.Events, insts, sites, opts.Window)
	var edges int
	plan.Interfere, edges = interferenceRows(hits, sites)
	meterPlan(opts.Metrics, len(plan.Pairs), edges)
	return plan
}

// meterPlan publishes a finished plan's shape: candidate pairs admitted to
// S and interference edges, each unordered pair of I counted once.
func meterPlan(r *obs.Registry, pairs, edges int) {
	if r == nil {
		return
	}
	r.Counter("analyze.candidate_pairs").Add(int64(pairs))
	r.Counter("analyze.interference_edges").Add(int64(edges))
}

// instance is one dynamic near miss: the trace positions of its two events
// (e1 before e2) and the candidate kind they form. Sorted instances yield
// S, and pass 3 inspects the trace around each one.
type instance struct {
	e1, e2 int32
	kind   BugKind
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

// groupBy groups the positions 0..n−1 by key with a counting sort, each
// group in position order and the groups in order of first appearance.
// Group g is order[bounds[g]:bounds[g+1]], and position i is in group
// gid[i].
func groupBy[K comparable](n int, key func(i int) K) (order, bounds, gid []int32) {
	ids := make(map[K]int32)
	bounds = []int32{0}
	gid = make([]int32, n)
	for i := range gid {
		k := key(i)
		g, ok := ids[k]
		if !ok {
			g = int32(len(bounds) - 1)
			ids[k] = g
			bounds = append(bounds, 0)
		}
		gid[i] = g
		bounds[g+1]++
	}
	for g := 1; g < len(bounds); g++ {
		bounds[g] += bounds[g-1]
	}
	next := append([]int32(nil), bounds[:len(bounds)-1]...)
	order = make([]int32, n)
	for i, g := range gid {
		order[next[g]] = int32(i)
		next[g]++
	}
	return order, bounds, gid
}

// nearMisses runs pass 1 (§3.1, §4.1). It groups the events by object,
// each object's events in trace order, and feeds every ordered
// same-object pair within δ through nearMiss. The trace must be
// time-sorted (Recorder output is, by construction): the inner loop
// breaks at the first event past the window, so an out-of-order trace
// would hide later in-window pairs behind an early far-future event. The
// instances come back sorted by (ℓ1, ℓ2, kind), comparing site names
// bytewise, so each candidate pair's instances are adjacent and pairs
// appear in S's order.
func nearMisses(events []trace.Event, opts Options) []instance {
	pruned := opts.Metrics.Counter("analyze.pairs_pruned")
	order, bounds, _ := groupBy(len(events), func(i int) trace.ObjID { return events[i].Obj })
	var insts []instance
	for g := 1; g < len(bounds); g++ {
		obj := order[bounds[g-1]:bounds[g]]
		for i, p1 := range obj {
			e1 := &events[p1]
			if !e1.Kind.IsMemOrder() {
				continue
			}
			for _, p2 := range obj[i+1:] {
				e2 := &events[p2]
				if e2.T.Sub(e1.T) >= opts.Window {
					break
				}
				if kind, ok := nearMiss(e1, e2, opts, pruned); ok {
					insts = append(insts, instance{p1, p2, kind})
				}
			}
		}
	}
	slices.SortFunc(insts, func(x, y instance) int {
		if c := strings.Compare(string(events[x.e1].Site), string(events[y.e1].Site)); c != 0 {
			return c
		}
		if c := strings.Compare(string(events[x.e2].Site), string(events[y.e2].Site)); c != 0 {
			return c
		}
		return cmp.Compare(x.kind, y.kind)
	})
	return insts
}

// assemblePlan builds the plan skeleton from the sorted instances. Each
// run of equal (ℓ1, ℓ2, kind) folds into one Pair of S: Count is the run
// length and Gap the run's largest gap. Pass 2 then sets the per-site
// delay lengths and initial injection probabilities. It also returns the
// injection sites, the distinct ℓ1, in name order.
func assemblePlan(label string, opts Options, events []trace.Event, insts []instance) (*Plan, []trace.SiteID) {
	plan := &Plan{Label: label, Window: opts.Window}
	// Count the runs first so that S and the site list are allocated once;
	// S stays nil when it is empty.
	nPairs, nSites := 0, 0
	for i := range insts {
		if i == 0 || !samePair(events, insts[i-1], insts[i]) {
			nPairs++
		}
		if i == 0 || events[insts[i-1].e1].Site != events[insts[i].e1].Site {
			nSites++
		}
	}
	if nPairs > 0 {
		plan.Pairs = make([]Pair, 0, nPairs)
	}
	sites := make([]trace.SiteID, 0, nSites)
	for i := 0; i < len(insts); {
		first := insts[i]
		p := Pair{Delay: events[first.e1].Site, Target: events[first.e2].Site, Kind: first.kind}
		for ; i < len(insts) && samePair(events, first, insts[i]); i++ {
			p.Count++
			p.Gap = max(p.Gap, events[insts[i].e2].T.Sub(events[insts[i].e1].T))
		}
		plan.Pairs = append(plan.Pairs, p)
		if len(sites) == 0 || sites[len(sites)-1] != p.Delay {
			sites = append(sites, p.Delay)
		}
	}

	// Pass 2: per-site delay lengths — len(ℓ1) is the largest gap among
	// pairs delaying at ℓ1 (§4.3) — and initial injection probabilities.
	// The DelayLen entry is created even when the largest gap is zero
	// (simultaneous timestamps): the injector treats map membership as
	// "is a candidate", and delayFor floors the injected delay at
	// MinDelay, so a zero-gap candidate still receives a delay long
	// enough to flip the order instead of silently never being injected.
	plan.DelayLen = make(map[trace.SiteID]sim.Duration, len(sites))
	plan.Probs = make(map[trace.SiteID]float64, len(sites))
	for _, p := range plan.Pairs {
		if cur, ok := plan.DelayLen[p.Delay]; !ok || p.Gap > cur {
			plan.DelayLen[p.Delay] = p.Gap
		}
		plan.Probs[p.Delay] = 1.0
	}
	return plan, sites
}

// samePair reports whether two instances are of one candidate pair.
func samePair(events []trace.Event, x, y instance) bool {
	return x.kind == y.kind && events[x.e1].Site == events[y.e1].Site && events[x.e2].Site == events[y.e2].Site
}

// threadEvent is one event in pass 3's grouping by thread: its timestamp
// and the number of its site among the injection sites, or -1.
type threadEvent struct {
	t    sim.Time
	site int32
}

// threadSlot locates one trace position in pass 3's grouping by thread:
// its index there and the bounds [lo, hi) of its thread's events.
type threadSlot struct {
	k, lo, hi int32
}

// edge is one pass-3 hit (ℓ1, ℓ*), as injection-site numbers.
type edge struct{ a, b int32 }

// interferenceHits runs pass 3 (§4.4) and returns its hits. For each
// near-miss instance (ℓ1 at τ1, ℓ2 at τ2), any injection site ℓ*
// exercised by ℓ2's thread in [τ1−δ, τ2], before ℓ2's event, would, if
// delayed, block that thread and cancel a delay at ℓ1 — a hit (ℓ1, ℓ*).
// ℓ* == ℓ1 is excluded: another thread reaching the same site is the
// concurrency being provoked, not a cancellation, and a self-edge would
// make interferenceLive forbid concurrent delays at one site across
// threads — a restriction the paper's Fig. 5 window does not call for.
//
// Sites are numbered by their index in sites, and each event's site is
// looked up once. Each hit is returned once.
func interferenceHits(events []trace.Event, insts []instance, sites []trace.SiteID, window sim.Duration) []edge {
	if len(insts) == 0 {
		return nil
	}
	num := make(map[trace.SiteID]int32, len(sites))
	for i, s := range sites {
		num[s] = int32(i)
	}

	// Group positions by thread, as pass 1 groups them by object.
	order, bounds, gid := groupBy(len(events), func(i int) int { return events[i].TID })
	thread := make([]threadEvent, len(events))
	slot := make([]threadSlot, len(events))
	for k, pos := range order {
		e := &events[pos]
		site, ok := num[e.Site]
		if !ok {
			site = -1
		}
		thread[k] = threadEvent{e.T, site}
		g := gid[pos]
		slot[pos] = threadSlot{int32(k), bounds[g], bounds[g+1]}
	}

	// The instances are grouped by ℓ1, so stamp[b] == a marks b as
	// already hit in a's group.
	var hits []edge
	stamp := make([]int32, len(sites))
	for i := range stamp {
		stamp[i] = -1
	}
	for _, in := range insts {
		s1, s2 := slot[in.e1], slot[in.e2]
		a := thread[s1.k].site
		lo := events[in.e1].T.Add(-window)
		own := thread[s2.lo:s2.hi]
		// Binary search the first event of ℓ2's thread at or after lo.
		from := s2.lo + int32(sort.Search(len(own), func(i int) bool { return own[i].t >= lo }))
		// Scan up to, not including, ℓ2's event.
		for _, e := range thread[from:max(from, s2.k)] {
			if b := e.site; b >= 0 && b != a && stamp[b] != a {
				stamp[b] = a
				hits = append(hits, edge{a, b})
			}
		}
	}
	return hits
}

// interferenceRows turns pass 3's hits into the symmetric interference
// set I, each site's list sorted by name, and counts its edges, each
// unordered pair once. Site numbers are indexes into sites, which is in
// name order, so sorted numbers are sorted names.
func interferenceRows(hits []edge, sites []trace.SiteID) (map[trace.SiteID][]trace.SiteID, int) {
	// Bucket the symmetric edges into one row per site with a counting
	// sort. Then transpose: reading the rows in site order appends each
	// row's number to its members' rows in order, and by symmetry the
	// transpose of a's row holds the same sites as a's row, sorted.
	start := make([]int32, len(sites)+1)
	for _, h := range hits {
		start[h.a+1]++
		start[h.b+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	next := make([]int32, len(sites))
	copy(next, start)
	unsorted := make([]int32, 2*len(hits))
	for _, h := range hits {
		unsorted[next[h.a]] = h.b
		next[h.a]++
		unsorted[next[h.b]] = h.a
		next[h.b]++
	}
	copy(next, start)
	rows := make([]int32, len(unsorted))
	for r := range sites {
		for _, x := range unsorted[start[r]:start[r+1]] {
			rows[next[x]] = int32(r)
			next[x]++
		}
	}
	// A hit recorded in both directions appears twice in its rows; compact
	// the rows in place, and let end[r] follow the end of row r.
	end := next
	total, nonEmpty := 0, 0
	for r := range sites {
		row := slices.Compact(rows[start[r]:start[r+1]])
		total += copy(rows[total:], row)
		end[r] = int32(total)
		if len(row) > 0 {
			nonEmpty++
		}
	}

	// Name the rows. They share one backing array, each capped at its own
	// length so that an append to one row cannot overwrite the next.
	names := make([]trace.SiteID, total)
	for i, b := range rows[:total] {
		names[i] = sites[b]
	}
	interfere := make(map[trace.SiteID][]trace.SiteID, nonEmpty)
	prev := int32(0)
	for r, e := range end[:len(sites)] {
		if e > prev {
			interfere[sites[r]] = names[prev:e:e]
		}
		prev = e
	}
	return interfere, total / 2
}
