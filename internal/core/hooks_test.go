package core_test

import (
	"testing"

	"waffle/internal/baselines"
	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/tsvd"
	"waffle/internal/wafflebasic"
)

// cutShortBody returns a body whose thread w accesses site a at 5ms (an
// Init, or an API call for TSVD). With partner, root makes the near-miss
// access at b at 6ms and joins w: the run in which a same-run or
// analyzing tool learns the pair. Otherwise root panics at 10ms, cutting
// short any delay over 5ms injected at w's access.
func cutShortBody(api, partner bool) func(*sim.Thread, *memmodel.Heap) {
	access := func(th *sim.Thread, r *memmodel.Ref, site trace.SiteID) {
		if api {
			r.APICall(th, site, true, 0)
		} else if site == "a" {
			r.Init(th, site)
		} else {
			r.UseIfLive(th, site)
		}
	}
	return func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("r")
		w := root.Spawn("w", func(th *sim.Thread) { th.Sleep(5 * sim.Millisecond); access(th, r, "a") })
		if !partner {
			root.Sleep(10 * sim.Millisecond)
			panic("root gives up")
		}
		root.Sleep(6 * sim.Millisecond)
		access(root, r, "b")
		root.Join(w)
	}
}

// TestHooksCountCutShortDelayAsSlept runs each of the five delay hooks
// through a delay that a fault in another thread cuts short: the one
// recorded interval must be [5ms, the run's end], the time slept, not the
// full delay.
func TestHooksCountCutShortDelayAsSlept(t *testing.T) {
	noCost := core.Options{InstrCost: -1}
	inj := core.NewInjector(&core.Plan{
		DelayLen: map[trace.SiteID]sim.Duration{"a": 10 * sim.Millisecond},
		Probs:    map[trace.SiteID]float64{"a": 1},
	}, noCost)
	basic := wafflebasic.New(noCost)
	tv := tsvd.New(tsvd.Options{InstrCost: -1})
	dc := &baselines.DataCollider{SampleRate: 1, Delay: 10 * sim.Millisecond}
	single := baselines.NewSingleDelay(noCost)
	single.InstrCost = 0
	rows := []struct {
		name       string
		hook       func(run int, prev *core.RunReport) memmodel.Hook
		stats      func() core.DelayStats
		train, api bool // learns its candidate in a first run; delays API calls
	}{
		{"injector", func(int, *core.RunReport) memmodel.Hook { return inj }, inj.Stats, false, false},
		{"online", basic.HookForRun, basic.RunStats, true, false},
		{"tsvd", tv.HookForRun, tv.RunStats, true, true},
		{"datacollider", dc.HookForRun, dc.RunStats, false, false},
		{"singledelay", single.HookForRun, single.RunStats, true, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run, prev := 1, (*core.RunReport)(nil)
			if row.train {
				res := (&core.SimProgram{Body: cutShortBody(row.api, true)}).Execute(1, row.hook(run, nil))
				run, prev = 2, &core.RunReport{Run: 1, End: res.End}
			}
			res := (&core.SimProgram{Body: cutShortBody(row.api, false)}).Execute(1, row.hook(run, prev))
			st := row.stats()
			want := core.Interval{Site: "a", Start: sim.Time(5 * sim.Millisecond), End: res.End}
			if res.Fault == nil || len(st.Intervals) != 1 || st.Intervals[0] != want || st.Count != 1 || st.Total != want.Dur() {
				t.Fatalf("fault %v, stats %+v; want one delay %+v, the time slept", res.Fault, st, want)
			}
		})
	}
}
