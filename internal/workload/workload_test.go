package workload

import (
	"fmt"
	"testing"

	"waffle/internal/core"
	"waffle/internal/live"
	"waffle/internal/trace"
)

// record runs the spec once under a recording hook and returns the trace.
func record(t *testing.T, spec Spec, seed int64) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(spec.Prefix, seed)
	prog := &core.SimProgram{Label: spec.Prefix, Jitter: 0.05, Body: spec.Body()}
	res := prog.Execute(seed, core.NewPrepHook(rec, core.Options{}))
	if res.Fault != nil {
		t.Fatalf("generated workload faulted: %v", res.Fault)
	}
	if res.Err != nil {
		t.Fatalf("generated workload failed: %v", res.Err)
	}
	return rec.Finish(res.End)
}

func TestGeneratedWorkloadIsFaultFreeAcrossSeeds(t *testing.T) {
	spec := Spec{
		Prefix: "app", Threads: 3, LocalObjs: 4, LocalOps: 3,
		SharedObjs: 3, SharedUses: 2, PreForkObjs: 2, SiteFanout: 2,
	}
	for seed := int64(0); seed < 10; seed++ {
		record(t, spec, seed)
	}
}

func TestSiteDensityScalesWithSpec(t *testing.T) {
	small := record(t, Spec{Prefix: "s", Threads: 2, LocalObjs: 2, LocalOps: 2, SharedObjs: 1, SharedUses: 1}, 1)
	big := record(t, Spec{Prefix: "b", Threads: 4, LocalObjs: 10, LocalOps: 4, SharedObjs: 6, SharedUses: 3, SiteFanout: 3}, 1)
	ss, bs := small.ComputeStats(), big.ComputeStats()
	if bs.MemSites <= ss.MemSites {
		t.Fatalf("big spec sites %d ≤ small spec sites %d", bs.MemSites, ss.MemSites)
	}
}

func TestSharedObjectsCreateInjectionCandidates(t *testing.T) {
	tr := record(t, Spec{
		Prefix: "x", Threads: 3, SharedObjs: 4, SharedUses: 3,
		LocalObjs: 2, LocalOps: 2,
	}, 7)
	plan := core.Analyze(tr, core.Options{})
	if len(plan.Pairs) == 0 {
		t.Fatal("no near-miss candidates from shared objects")
	}
	if len(plan.InjectionSites()) == 0 {
		t.Fatal("no injection sites")
	}
}

func TestPreForkPairsPrunedByWaffleKeptByAblation(t *testing.T) {
	spec := Spec{Prefix: "pf", Threads: 2, PreForkObjs: 5, LocalObjs: 1, LocalOps: 1}
	tr := record(t, spec, 3)
	pruned := core.Analyze(tr, core.Options{})
	kept := core.Analyze(tr, core.Options{DisableParentChild: true})
	prunedUBI, keptUBI := 0, 0
	for _, p := range pruned.Pairs {
		if p.Kind == core.UseBeforeInit {
			prunedUBI++
		}
	}
	for _, p := range kept.Pairs {
		if p.Kind == core.UseBeforeInit {
			keptUBI++
		}
	}
	if prunedUBI != 0 {
		t.Fatalf("fork-ordered init/use pairs survived pruning: %d", prunedUBI)
	}
	if keptUBI == 0 {
		t.Fatal("ablation found no fork-ordered pairs to keep")
	}
}

func TestAPITrafficVisibleToTSVDOnly(t *testing.T) {
	tr := record(t, Spec{
		Prefix: "api", Threads: 2, APIObjs: 2, APICalls: 6, APISites: 3,
	}, 5)
	st := tr.ComputeStats()
	if st.APISites == 0 || st.APIEvents == 0 {
		t.Fatalf("no API traffic recorded: %+v", st)
	}
	plan := core.Analyze(tr, core.Options{})
	for _, p := range plan.Pairs {
		t.Fatalf("API traffic leaked into MemOrder candidates: %+v", p)
	}
}

func TestGeneratedWorkloadSurvivesWaffleDetection(t *testing.T) {
	// A pure-noise workload must stay fault-free under full Waffle
	// detection — delays at its candidate sites hit guarded uses only.
	spec := Spec{
		Prefix: "noise", Threads: 3, LocalObjs: 3, LocalOps: 2,
		SharedObjs: 4, SharedUses: 3, PreForkObjs: 2,
	}
	prog := &core.SimProgram{Label: "noise", Jitter: 0.05, Body: spec.Body()}
	s := &core.Session{Prog: prog, Tool: core.NewWaffle(core.Options{}), MaxRuns: 6, BaseSeed: 11}
	out := s.Expose()
	if out.Bug != nil {
		t.Fatalf("noise workload produced a bug: %v", out.Bug)
	}
	injected := 0
	for _, r := range out.Runs {
		injected += r.Stats.Count
	}
	if injected == 0 {
		t.Fatal("detection runs injected nothing — the workload generates no candidates")
	}
}

func TestBaseTimeScalesWithSpacing(t *testing.T) {
	slow := record(t, Spec{Prefix: "slow", Threads: 2, LocalObjs: 3, LocalOps: 5, Spacing: 2000}, 1)
	fast := record(t, Spec{Prefix: "fast", Threads: 2, LocalObjs: 3, LocalOps: 5, Spacing: 500}, 1)
	if slow.End <= fast.End {
		t.Fatalf("spacing did not scale time: slow %v ≤ fast %v", slow.End, fast.End)
	}
}

func TestLiveBodyFaultFreeUnderMonitor(t *testing.T) {
	// The live mirror of the generated workload must survive the full
	// monitor lifecycle — record, analyze, inject — without a fault: it is
	// the false-positive control population of the load test, so any bug
	// report here is a detector bug.
	spec := Spec{
		Prefix: "lw", Threads: 2, LocalObjs: 1, LocalOps: 1,
		SharedObjs: 2, SharedUses: 2, PreForkObjs: 1, SyncedObjs: 1,
		Spacing: 50, // 50µs think time keeps the request ~ms-scale
	}
	mon := live.NewMonitor(7, live.Options{SampleRate: 1})
	body := spec.LiveBody()
	sawDelays := false
	for i := 0; i < 15; i++ {
		rep := mon.Do("/workload", body)
		if rep.Fault != nil || rep.Bug != nil {
			t.Fatalf("live workload faulted on request %d: fault=%v bug=%+v", i, rep.Fault, rep.Bug)
		}
		sawDelays = sawDelays || rep.Delays > 0
	}
	if !sawDelays {
		t.Fatal("no request injected delays — the live workload generates no candidates")
	}
}

func TestTaskWorkloadFaultFree(t *testing.T) {
	spec := TaskSpec{
		Prefix: "taskapp", Workers: 3, PreSubmitObjs: 2,
		SharedObjs: 4, UsesPerObj: 2,
	}
	for seed := int64(0); seed < 8; seed++ {
		prog := &core.SimProgram{Label: "taskapp", Jitter: 0.05, Body: spec.Body()}
		res := prog.Execute(seed, nil)
		if res.Fault != nil || res.Err != nil {
			t.Fatalf("task workload failed (seed %d): fault=%v err=%v", seed, res.Fault, res.Err)
		}
	}
}

func TestTaskWorkloadPreSubmitPairsPruned(t *testing.T) {
	spec := TaskSpec{
		Prefix: "taskpfx", Workers: 2, PreSubmitObjs: 3,
		SharedObjs: 2, UsesPerObj: 2,
	}
	rec := trace.NewRecorder("taskpfx", 1)
	prog := &core.SimProgram{Label: "taskpfx", Jitter: 0.05, Body: spec.Body()}
	res := prog.Execute(1, core.NewPrepHook(rec, core.Options{}))
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	tr := rec.Finish(res.End)
	pruned := core.Analyze(tr, core.Options{})
	for _, p := range pruned.Pairs {
		if p.Kind == core.UseBeforeInit && p.Target == "taskpfx/pre/0/use" {
			t.Fatalf("pre-submit pair survived async-local pruning: %+v", p)
		}
	}
	unpruned := core.Analyze(tr, core.Options{DisableParentChild: true})
	if len(unpruned.Pairs) <= len(pruned.Pairs) {
		t.Fatalf("pruning removed nothing: %d vs %d", len(unpruned.Pairs), len(pruned.Pairs))
	}
}

func TestTaskWorkloadSurvivesWaffleDetection(t *testing.T) {
	spec := TaskSpec{
		Prefix: "tasknoise", Workers: 2, PreSubmitObjs: 1,
		SharedObjs: 3, UsesPerObj: 2,
	}
	prog := &core.SimProgram{Label: "tasknoise", Jitter: 0.05, Body: spec.Body()}
	s := &core.Session{Prog: prog, Tool: core.NewWaffle(core.Options{}), MaxRuns: 5, BaseSeed: 3}
	if out := s.Expose(); out.Bug != nil {
		t.Fatalf("task noise workload produced a bug: %v", out.Bug)
	}
}

var siteSink trace.SiteID

// TestSiteIDMatchesFmtAndAllocatesOnce pins the site-label helper to the
// labels the bodies used to build with fmt ("/%v" per part), byte for
// byte, at one allocation per label.
func TestSiteIDMatchesFmtAndAllocatesOnce(t *testing.T) {
	for _, parts := range [][]any{
		{},
		{"prefork", 3, "init"},
		{"w", 12, "local", 300, "use", 7},
		{"api", -1, 1 << 40, ""},
	} {
		want := "Some.App/test-001"
		for _, p := range parts {
			want += fmt.Sprintf("/%v", p)
		}
		if got := siteID("Some.App/test-001", parts...); string(got) != want {
			t.Errorf("siteID(%v) = %q, want %q", parts, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		siteSink = siteID("Some.App/test-001", "w", 12, "local", 300, "use", 7)
	})
	if allocs != 1 {
		t.Fatalf("siteID allocates %v times per label, want 1", allocs)
	}
}
