package core

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// ev builds a trace event at millisecond timestamp ms.
func ev(seq int, ms float64, tid int, site trace.SiteID, obj trace.ObjID, kind trace.Kind) trace.Event {
	return trace.Event{
		Seq: seq, T: sim.Time(ms * float64(sim.Millisecond)),
		TID: tid, Site: site, Obj: obj, Kind: kind,
	}
}

func mkTrace(events ...trace.Event) *trace.Trace {
	var end sim.Time
	for i := range events {
		events[i].Seq = i
		if events[i].T > end {
			end = events[i].T
		}
	}
	return &trace.Trace{Label: "test", Events: events, End: end}
}

func TestAnalyzeFindsUseBeforeInitPair(t *testing.T) {
	tr := mkTrace(
		ev(0, 1, 1, "ctor", 1, trace.KindInit),
		ev(1, 3, 2, "handler", 1, trace.KindUse),
	)
	plan := Analyze(tr, Options{})
	if len(plan.Pairs) != 1 {
		t.Fatalf("pairs = %v", plan.Pairs)
	}
	p := plan.Pairs[0]
	if p.Delay != "ctor" || p.Target != "handler" || p.Kind != UseBeforeInit {
		t.Fatalf("pair = %+v", p)
	}
	if p.Gap != 2*sim.Millisecond {
		t.Fatalf("gap = %v, want 2ms", p.Gap)
	}
	if plan.DelayLen["ctor"] != 2*sim.Millisecond {
		t.Fatalf("delay len = %v", plan.DelayLen["ctor"])
	}
	if plan.Probs["ctor"] != 1.0 {
		t.Fatalf("prob = %v", plan.Probs["ctor"])
	}
}

func TestAnalyzeFindsUseAfterFreePair(t *testing.T) {
	tr := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 2, 2, "worker", 1, trace.KindUse),
		ev(2, 5, 1, "cleanup", 1, trace.KindDispose),
	)
	plan := Analyze(tr, Options{})
	var uaf *Pair
	for i := range plan.Pairs {
		if plan.Pairs[i].Kind == UseAfterFree {
			uaf = &plan.Pairs[i]
		}
	}
	if uaf == nil {
		t.Fatalf("no UAF pair in %v", plan.Pairs)
	}
	if uaf.Delay != "worker" || uaf.Target != "cleanup" {
		t.Fatalf("pair = %+v", uaf)
	}
	if uaf.Gap != 3*sim.Millisecond {
		t.Fatalf("gap = %v", uaf.Gap)
	}
}

func TestAnalyzeIgnoresSameThread(t *testing.T) {
	tr := mkTrace(
		ev(0, 1, 1, "ctor", 1, trace.KindInit),
		ev(1, 2, 1, "same", 1, trace.KindUse),
	)
	plan := Analyze(tr, Options{})
	if len(plan.Pairs) != 0 {
		t.Fatalf("same-thread pair admitted: %v", plan.Pairs)
	}
}

func TestAnalyzeIgnoresDifferentObjects(t *testing.T) {
	tr := mkTrace(
		ev(0, 1, 1, "ctor", 1, trace.KindInit),
		ev(1, 2, 2, "use", 2, trace.KindUse),
	)
	plan := Analyze(tr, Options{})
	if len(plan.Pairs) != 0 {
		t.Fatalf("cross-object pair admitted: %v", plan.Pairs)
	}
}

func TestAnalyzeRespectsWindow(t *testing.T) {
	tr := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 150, 2, "use", 1, trace.KindUse), // 150ms > δ=100ms
	)
	plan := Analyze(tr, Options{})
	if len(plan.Pairs) != 0 {
		t.Fatalf("out-of-window pair admitted: %v", plan.Pairs)
	}
	// Shrinking the window further excludes closer pairs too.
	tr2 := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 5, 2, "use", 1, trace.KindUse),
	)
	if got := len(Analyze(tr2, Options{Window: 2 * sim.Millisecond}).Pairs); got != 0 {
		t.Fatalf("pair admitted outside custom window")
	}
	if got := len(Analyze(tr2, Options{Window: 10 * sim.Millisecond}).Pairs); got != 1 {
		t.Fatalf("pair missing inside custom window")
	}
}

func TestAnalyzeMaxGapAcrossInstances(t *testing.T) {
	tr := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 2, 2, "use", 1, trace.KindUse),
		ev(2, 10, 1, "ctor", 2, trace.KindInit),
		ev(3, 18, 2, "use", 2, trace.KindUse),
	)
	plan := Analyze(tr, Options{})
	if len(plan.Pairs) != 1 {
		t.Fatalf("pairs = %v", plan.Pairs)
	}
	if plan.Pairs[0].Count != 2 {
		t.Fatalf("count = %d, want 2", plan.Pairs[0].Count)
	}
	if plan.DelayLen["ctor"] != 8*sim.Millisecond {
		t.Fatalf("len = %v, want the max gap 8ms", plan.DelayLen["ctor"])
	}
}

// clockEv builds an event carrying a fork clock.
func clockEv(ms float64, tid int, site trace.SiteID, obj trace.ObjID, kind trace.Kind, clk *vclock.Clock) trace.Event {
	e := ev(0, ms, tid, site, obj, kind)
	e.Clock = clk
	return e
}

func TestAnalyzeParentChildPruning(t *testing.T) {
	// Thread 1 initializes before forking thread 2; the fork orders the
	// events, so the pair must be pruned — unless the ablation is active.
	parentPre := vclock.FromSnapshot(1, []vclock.Entry{{TID: 1, Counter: 1}})
	child := vclock.FromSnapshot(2, []vclock.Entry{{TID: 1, Counter: 1}, {TID: 2, Counter: 1}})
	tr := mkTrace(
		clockEv(1, 1, "ctor", 1, trace.KindInit, parentPre),
		clockEv(3, 2, "use", 1, trace.KindUse, child),
	)
	if got := len(Analyze(tr, Options{}).Pairs); got != 0 {
		t.Fatalf("fork-ordered pair admitted")
	}
	if got := len(Analyze(tr, Options{DisableParentChild: true}).Pairs); got != 1 {
		t.Fatalf("ablation did not keep the pair")
	}

	// Post-fork parent events are concurrent with the child: kept.
	parentPost := vclock.FromSnapshot(1, []vclock.Entry{{TID: 1, Counter: 2}})
	tr2 := mkTrace(
		clockEv(1, 1, "ctor", 1, trace.KindInit, parentPost),
		clockEv(3, 2, "use", 1, trace.KindUse, child),
	)
	if got := len(Analyze(tr2, Options{}).Pairs); got != 1 {
		t.Fatalf("concurrent pair pruned")
	}
}

func TestAnalyzeInterferenceSet(t *testing.T) {
	// Figure 5's shape: pair {ctor,use2} plus a candidate site "chk"
	// exercised by use2's thread inside [τ1−δ, τ2].
	tr := mkTrace(
		ev(0, 0, 1, "initA", 2, trace.KindInit), // makes chk's pair below
		ev(1, 1, 1, "ctor", 1, trace.KindInit),
		ev(2, 2, 2, "chk", 2, trace.KindUse), // chk is an injection site (pair with dispose below)
		ev(3, 3, 2, "use2", 1, trace.KindUse),
		ev(4, 4, 1, "disp", 2, trace.KindDispose),
	)
	plan := Analyze(tr, Options{})
	// chk delays for {chk, disp}; ctor delays for {ctor, use2}.
	if _, ok := plan.DelayLen["chk"]; !ok {
		t.Fatalf("chk not an injection site; pairs=%v", plan.Pairs)
	}
	if !plan.InterferesWith("ctor", "chk") || !plan.InterferesWith("chk", "ctor") {
		t.Fatalf("interference edge missing: %v", plan.Interfere)
	}
}

func TestAnalyzeExcludesSelfInterference(t *testing.T) {
	// Figure 4b: the same static site executes in both threads. The
	// interference relation must NOT contain the self edge — another
	// thread reaching the delay site is exactly the concurrency being
	// provoked, not a delay cancellation, and a self edge would make the
	// injector forbid concurrent delays at one site across threads.
	// Cross-site edges in the same window must survive.
	tr := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 3, 2, "chk", 1, trace.KindUse), // thd2's use: pair {chk, disp}
		ev(2, 4, 1, "chk", 1, trace.KindUse), // thd1 exercises chk too
		ev(3, 4.5, 1, "disp", 1, trace.KindDispose),
	)
	plan := Analyze(tr, Options{})
	if plan.InterferesWith("chk", "chk") {
		t.Fatalf("self-interference edge present: %v", plan.Interfere)
	}
	if !plan.InterferesWith("chk", "ctor") || !plan.InterferesWith("ctor", "chk") {
		t.Fatalf("cross-site interference lost: %v", plan.Interfere)
	}
}

func TestAnalyzeZeroGapPairIsCandidate(t *testing.T) {
	// Simultaneous timestamps are a legal near miss (gap 0 < δ). The
	// injector treats DelayLen membership as "is a candidate", so the
	// entry must exist even though the recorded gap is zero; delayFor
	// floors the injected delay at MinDelay.
	tr := mkTrace(
		ev(0, 1, 1, "ctor", 1, trace.KindInit),
		ev(1, 1, 2, "use", 1, trace.KindUse), // same instant, other thread
	)
	plan := Analyze(tr, Options{})
	if len(plan.Pairs) != 1 || plan.Pairs[0].Gap != 0 {
		t.Fatalf("pairs = %+v, want one zero-gap pair", plan.Pairs)
	}
	gap, ok := plan.DelayLen["ctor"]
	if !ok {
		t.Fatalf("zero-gap pair has no DelayLen entry: %v (site silently never injected)", plan.DelayLen)
	}
	if gap != 0 {
		t.Fatalf("DelayLen[ctor] = %v, want 0", gap)
	}
	if plan.Probs["ctor"] != 1.0 {
		t.Fatalf("probs = %v, want ctor at 1.0", plan.Probs)
	}
}

// planBytes renders a plan to its canonical JSON encoding, the byte-level
// identity analysis results are compared at.
func planBytes(t *testing.T, plan *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatalf("encode plan: %v", err)
	}
	return buf.Bytes()
}

// Pass 1's inner loop breaks as soon as a partner is a full window ahead —
// which is only sound because ByObject lists inherit the trace's time
// order. This test documents the dependency: on an out-of-order trace the
// early break silently drops a genuine near miss, and TimeSorted is the
// guard callers of externally loaded traces must use.
func TestAnalyzeEarlyBreakRequiresTimeSortedTrace(t *testing.T) {
	unsorted := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 200, 2, "far", 1, trace.KindUse), // a full window ahead: breaks the scan
		ev(2, 50, 2, "use", 1, trace.KindUse),  // in-window partner hidden behind it
	)
	if unsorted.TimeSorted() {
		t.Fatal("trace unexpectedly time-sorted")
	}
	if plan := Analyze(unsorted, Options{}); len(plan.Pairs) != 0 {
		t.Fatalf("unsorted trace produced %d pairs; the early break was expected to drop them", len(plan.Pairs))
	}

	sorted := mkTrace(unsorted.Events...)
	sort.Slice(sorted.Events, func(i, j int) bool { return sorted.Events[i].T < sorted.Events[j].T })
	for i := range sorted.Events {
		sorted.Events[i].Seq = i
	}
	if !sorted.TimeSorted() {
		t.Fatal("sorted trace not time-sorted")
	}
	plan := Analyze(sorted, Options{})
	if len(plan.Pairs) != 1 || plan.Pairs[0].Delay != "ctor" || plan.Pairs[0].Target != "use" {
		t.Fatalf("sorted trace pairs = %+v, want the recovered ctor→use near miss", plan.Pairs)
	}
}

// shiftTrace returns a copy of tr with every timestamp offset by base —
// turning virtual-scale ticks into the absolute wall-clock-nanosecond
// magnitudes a live runtime could stamp.
func shiftTrace(tr *trace.Trace, base sim.Time) *trace.Trace {
	out := &trace.Trace{Label: tr.Label, Seed: tr.Seed, End: tr.End + base}
	out.Events = append([]trace.Event(nil), tr.Events...)
	for i := range out.Events {
		out.Events[i].T += base
	}
	return out
}

// The analyzer consumes only time differences, so a trace shifted to
// wall-clock magnitude must produce the byte-identical plan — in memory
// and after a WFTS stream round trip. This pins the live-mode contract:
// nothing in analysis or the codecs truncates, wraps, or rescales large
// int64 timestamps.
func TestAnalyzeWallClockMagnitudeTimestamps(t *testing.T) {
	base := sim.Time(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano())
	for seed := int64(1); seed <= 5; seed++ {
		tr := genTrace(seed, 100)
		want := planBytes(t, Analyze(tr, Options{}))

		shifted := shiftTrace(tr, base)
		if got := planBytes(t, Analyze(shifted, Options{})); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: wall-clock shift changed the plan:\n%s\nvs\n%s", seed, got, want)
		}
		var buf bytes.Buffer
		if err := shifted.WriteStream(&buf); err != nil {
			t.Fatalf("seed %d: write stream: %v", seed, err)
		}
		back, err := trace.ReadStream(&buf)
		if err != nil {
			t.Fatalf("seed %d: read stream: %v", seed, err)
		}
		if got := planBytes(t, Analyze(back, Options{})); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: analysis after a WFTS round trip diverged:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

func TestAnalyzeInjectionSitesSorted(t *testing.T) {
	tr := mkTrace(
		ev(0, 0, 1, "z", 1, trace.KindInit),
		ev(1, 1, 2, "y", 1, trace.KindUse),
		ev(2, 2, 1, "b", 2, trace.KindInit),
		ev(3, 3, 2, "a", 2, trace.KindUse),
	)
	plan := Analyze(tr, Options{})
	sites := plan.InjectionSites()
	if len(sites) != 2 || sites[0] != "b" || sites[1] != "z" {
		t.Fatalf("sites = %v", sites)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	tr := mkTrace(
		ev(0, 0, 1, "initA", 2, trace.KindInit),
		ev(1, 1, 1, "ctor", 1, trace.KindInit),
		ev(2, 2, 2, "chk", 2, trace.KindUse),
		ev(3, 3, 2, "use2", 1, trace.KindUse),
		ev(4, 4, 1, "disp", 2, trace.KindDispose),
	)
	plan := Analyze(tr, Options{})
	plan.Probs["ctor"] = 0.7 // decayed state must survive persistence

	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatalf("ReadPlanJSON: %v", err)
	}
	if back.Label != plan.Label || back.Window != plan.Window {
		t.Fatalf("metadata changed: %+v", back)
	}
	if len(back.Pairs) != len(plan.Pairs) {
		t.Fatalf("pairs = %d, want %d", len(back.Pairs), len(plan.Pairs))
	}
	for i := range plan.Pairs {
		if back.Pairs[i] != plan.Pairs[i] {
			t.Fatalf("pair %d changed: %+v vs %+v", i, back.Pairs[i], plan.Pairs[i])
		}
	}
	if back.Probs["ctor"] != 0.7 {
		t.Fatalf("probs lost: %v", back.Probs)
	}
	for site := range plan.DelayLen {
		if back.DelayLen[site] != plan.DelayLen[site] {
			t.Fatalf("delay len changed for %s", site)
		}
	}
	for a, list := range plan.Interfere {
		for _, b := range list {
			if !back.InterferesWith(a, b) {
				t.Fatalf("interference edge (%s,%s) lost", a, b)
			}
		}
	}
}

func TestReadPlanJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadPlanJSON(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Window != DefaultWindow || o.Alpha != DefaultAlpha || o.Decay != DefaultDecay {
		t.Fatalf("defaults = %+v", o)
	}
	if o.FixedDelay != DefaultFixedDelay || o.MaxDetectionRuns != DefaultMaxRuns {
		t.Fatalf("defaults = %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Window: sim.Millisecond, Alpha: 2}.WithDefaults()
	if o2.Window != sim.Millisecond || o2.Alpha != 2 {
		t.Fatalf("explicit values overridden: %+v", o2)
	}
}

func TestDelayForVariableAndFixed(t *testing.T) {
	o := Options{}.WithDefaults()
	if got := o.delayFor(10 * sim.Millisecond); got != sim.Duration(float64(10*sim.Millisecond)*DefaultAlpha) {
		t.Fatalf("variable delay = %v", got)
	}
	if got := o.delayFor(1 * sim.Microsecond); got != DefaultMinDelay {
		t.Fatalf("tiny gap not floored: %v", got)
	}
	of := Options{DisableCustomLengths: true}.WithDefaults()
	if got := of.delayFor(10 * sim.Millisecond); got != DefaultFixedDelay {
		t.Fatalf("fixed delay = %v", got)
	}
}

func TestBugKindString(t *testing.T) {
	if UseBeforeInit.String() != "use-before-init" || UseAfterFree.String() != "use-after-free" {
		t.Fatal("bug kind names wrong")
	}
}
