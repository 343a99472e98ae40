package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// refAnalyze is a brute-force analyzer written from the definitions
// (§3.1, §4.1–§4.4) rather than from Analyze's passes: it visits every
// same-object event pair with no early break, scans ℓ2's thread linearly
// in pass 3 with no binary search, and keys everything by site strings.
// It returns the plan and the number of pruned near-miss instances.
func refAnalyze(tr *trace.Trace, opts Options) (*Plan, int64) {
	opts = opts.WithDefaults()
	type key struct {
		delay, target trace.SiteID
		kind          BugKind
	}
	type instance struct{ e1, e2 int }
	evs := tr.Events
	pairs := make(map[key]*Pair)
	var insts []instance
	var pruned int64
	for i := range evs {
		for j := i + 1; j < len(evs); j++ {
			e1, e2 := &evs[i], &evs[j]
			if e1.Obj != e2.Obj {
				continue
			}
			kind, admit, wasPruned := refClassify(e1, e2, opts)
			if wasPruned {
				pruned++
			}
			if !admit {
				continue
			}
			k := key{e1.Site, e2.Site, kind}
			p := pairs[k]
			if p == nil {
				p = &Pair{Delay: e1.Site, Target: e2.Site, Kind: kind}
				pairs[k] = p
			}
			p.Count++
			p.Gap = max(p.Gap, e2.T.Sub(e1.T))
			insts = append(insts, instance{i, j})
		}
	}

	plan := &Plan{
		Label:     tr.Label,
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
	for _, p := range plan.Pairs {
		plan.DelayLen[p.Delay] = max(plan.DelayLen[p.Delay], p.Gap)
		plan.Probs[p.Delay] = 1.0
	}

	// Pass 3: every injection site ℓ* ≠ ℓ1 that ℓ2's thread executes in
	// [τ1−δ, τ2), before ℓ2's event, interferes with ℓ1.
	edges := make(map[trace.SiteID]map[trace.SiteID]bool)
	addEdge := func(a, b trace.SiteID) {
		if edges[a] == nil {
			edges[a] = make(map[trace.SiteID]bool)
		}
		edges[a][b] = true
	}
	for _, in := range insts {
		e1, e2 := &evs[in.e1], &evs[in.e2]
		lo := e1.T.Add(-opts.Window)
		for k := 0; k < in.e2; k++ {
			e := &evs[k]
			if e.TID != e2.TID || e.T < lo {
				continue
			}
			if _, inj := plan.DelayLen[e.Site]; inj && e.Site != e1.Site {
				addEdge(e1.Site, e.Site)
				addEdge(e.Site, e1.Site)
			}
		}
	}
	for a, set := range edges {
		for b := range set {
			plan.Interfere[a] = append(plan.Interfere[a], b)
		}
		sort.Slice(plan.Interfere[a], func(i, j int) bool { return plan.Interfere[a][i] < plan.Interfere[a][j] })
	}
	return plan, pruned
}

// refClassify applies the candidate rules to e1 before e2 on one object.
// An unordered cross-thread init→use within δ is a use-before-init
// candidate, and use→dispose a use-after-free candidate. A fork-ordered
// pair of either shape is pruned, unless parent-child pruning is off, and
// the pruned instances are counted; under TSO a fork-ordered init→use or
// dispose→use within δ is a stale-read candidate instead.
func refClassify(e1, e2 *trace.Event, opts Options) (kind BugKind, admit, pruned bool) {
	gap := e2.T.Sub(e1.T)
	if e1.TID == e2.TID || gap < 0 || gap >= opts.Window {
		return 0, false, false
	}
	ordered := !opts.DisableParentChild && vclock.Ordered(e1.Clock, e2.Clock)
	switch {
	case e1.Kind == trace.KindInit && e2.Kind == trace.KindUse:
		if !ordered {
			return UseBeforeInit, true, false
		}
		if opts.TSO {
			return StaleRead, true, false
		}
		return 0, false, true
	case e1.Kind == trace.KindUse && e2.Kind == trace.KindDispose:
		if !ordered {
			return UseAfterFree, true, false
		}
		return 0, false, true
	case e1.Kind == trace.KindDispose && e2.Kind == trace.KindUse && opts.TSO && ordered:
		return StaleRead, true, false
	}
	return 0, false, false
}

// genRefTrace builds a random time-sorted trace with Seq equal to the
// position: up to 300 events on 2–6 threads whose fork clocks follow a
// random fork tree with forks spread over the run (one trace in ten
// carries no clocks), up to 60 sites whose string order differs from
// their numbering, up to 10 objects, about a quarter zero-gap steps, and
// some thread-unsafe API kinds. One trace in four spreads its thread and
// object ids far apart instead of numbering them densely from 1.
func genRefTrace(rng *rand.Rand) *trace.Trace {
	nEvents := 1 + rng.Intn(300)
	nThreads := 2 + rng.Intn(5)
	nSites := 1 + rng.Intn(60)
	nObjs := 1 + rng.Intn(10)
	clockless := rng.Intn(10) == 0
	tidOf := func(t int) int { return t }
	objOf := func(o int) trace.ObjID { return trace.ObjID(o) }
	if rng.Intn(4) == 0 {
		tidOf = func(t int) int { return t * 1_000_003 }
		objOf = func(o int) trace.ObjID { return trace.ObjID(o-nObjs/2) << 40 }
	}
	kinds := []trace.Kind{
		trace.KindInit, trace.KindInit, trace.KindUse, trace.KindUse, trace.KindUse,
		trace.KindDispose, trace.KindDispose, trace.KindAPIRead, trace.KindAPIWrite,
	}

	sites := make([]trace.SiteID, nSites)
	for k := range sites {
		sites[k] = trace.SiteID(fmt.Sprintf("f%d.go:%d", k%7, k))
	}

	clocks := []*vclock.Clock{nil, vclock.New(tidOf(1))} // indexed by thread; thread 1 is the root
	tr := &trace.Trace{Label: "ref"}
	var now sim.Time
	for i := 0; i < nEvents; i++ {
		if rng.Intn(4) != 0 {
			now = now.Add(sim.Duration(rng.Intn(12_000))) // 0–12ms steps
		}
		if live := len(clocks) - 1; live < nThreads && (live == 1 || rng.Intn(nEvents) < nThreads) {
			parent := 1 + rng.Intn(live)
			child, advanced := vclock.Fork(clocks[parent], tidOf(live+1))
			clocks[parent] = advanced
			clocks = append(clocks, child)
		}
		tid := 1 + rng.Intn(len(clocks)-1)
		e := trace.Event{
			Seq:   i,
			T:     now,
			TID:   tidOf(tid),
			Site:  sites[rng.Intn(nSites)],
			Obj:   objOf(1 + rng.Intn(nObjs)),
			Kind:  kinds[rng.Intn(len(kinds))],
			Clock: clocks[tid],
		}
		if e.Kind.IsAPI() {
			e.Dur = sim.Duration(rng.Intn(100))
		}
		if clockless {
			e.Clock = nil
		}
		tr.Events = append(tr.Events, e)
	}
	tr.End = now
	return tr
}

// analyzeCounters are the analyze.* counters the reference checks.
var analyzeCounters = []string{"analyze.candidate_pairs", "analyze.pairs_pruned", "analyze.interference_edges"}

// TestAnalyzeMatchesReference checks Analyze against refAnalyze on
// generated traces under every analysis option that changes S or I: the
// plan JSON must match byte for byte, the in-memory interference lists
// must match in order, and the analyze.* counters must agree.
func TestAnalyzeMatchesReference(t *testing.T) {
	optionSets := []Options{
		{},
		{TSO: true},
		{DisableParentChild: true},
		{Window: 20 * sim.Millisecond},
		{TSO: true, DisableParentChild: true},
	}
	check := func(seed int64) bool {
		tr := genRefTrace(rand.New(rand.NewSource(seed)))
		if !tr.TimeSorted() {
			t.Errorf("seed %d: generated trace not time-sorted", seed)
			return false
		}
		for _, opts := range optionSets {
			reg := obs.New()
			o := opts
			o.Metrics = reg
			got := Analyze(tr, o)
			want, pruned := refAnalyze(tr, opts)

			gotJSON, wantJSON := planBytes(t, got), planBytes(t, want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("seed %d, %+v: plan JSON differs from the reference:\n%s\nwant:\n%s", seed, opts, gotJSON, wantJSON)
				return false
			}
			if !reflect.DeepEqual(got.Interfere, want.Interfere) {
				t.Errorf("seed %d, %+v: interference lists differ in order:\n%v\nwant:\n%v", seed, opts, got.Interfere, want.Interfere)
				return false
			}
			var edges int64
			for _, others := range want.Interfere {
				edges += int64(len(others))
			}
			wantCounts := []int64{int64(len(want.Pairs)), pruned, edges / 2}
			for i, name := range analyzeCounters {
				if v := reg.Counter(name).Value(); v != wantCounts[i] {
					t.Errorf("seed %d, %+v: %s = %d, want %d", seed, opts, name, v, wantCounts[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
