package server

import (
	"context"
	"strings"
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// faultTool throws a NULL-reference fault at a site outside every
// manifest on the first access of every run, and reports delays delays
// for the run.
type faultTool struct{ delays int }

func (f faultTool) Name() string { return "fault" }

func (f faultTool) HookForRun(int, *core.RunReport) memmodel.Hook {
	return memmodel.HookFunc(func(t *sim.Thread, _ trace.SiteID, obj trace.ObjID, kind trace.Kind, _ sim.Duration) {
		t.Throw(&memmodel.NullRefError{Obj: obj, Name: "ghost", Site: "ghost.site", Kind: kind})
	})
}

func (f faultTool) RunStats() core.DelayStats { return core.DelayStats{Count: f.delays} }

func (f faultTool) Candidates(trace.SiteID) []core.Pair { return nil }

func faultEngine(name string, delays int) Engine {
	return Engine{
		Name:       name,
		NewTool:    func(*obs.Registry) (core.Tool, error) { return faultTool{delays}, nil },
		MaxRuns:    4,
		DisarmRuns: 4,
	}
}

// checkViolations fails unless got holds one violation per want, each
// containing its want.
func checkViolations(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d violations %q, want %d", len(got), got, len(want))
	}
	for k, w := range want {
		if !strings.Contains(got[k], w) {
			t.Errorf("violation %d = %q, want it to contain %q", k, got[k], w)
		}
	}
}

// The oracle fails a report outside the manifest, a disarmed control that
// reports a bug, and a disarmed control that faults without a delay —
// checks no real engine trips on a correct corpus.
func TestOracleVerdicts(t *testing.T) {
	corpus := CorpusSpec{Seed: 99, Programs: 1}
	cases := []struct {
		engine Engine
		want   []string
	}{
		{faultEngine("delayed", 1), []string{
			"gen-small-s99/bug0/delayed: genprog: fault outside the manifest",
			"gen-small-s99/disarmed/delayed: false positive",
		}},
		{faultEngine("delay-free", 0), []string{
			"gen-small-s99/disarmed/delay-free: faulted delay-free in 1 runs",
		}},
	}
	for _, c := range cases {
		pr := runProgram(context.Background(), corpus, 0, c.engine, nil, nil)
		if pr.Bugs != 1 || len(pr.Outcomes) != 1 || pr.Outcomes[0].Runs != 0 {
			t.Fatalf("%s: %d bugs, outcomes %+v; want one bug, not exposed", c.engine.Name, pr.Bugs, pr.Outcomes)
		}
		if pr.RunsUsed != 2 {
			t.Errorf("%s: %d runs used, want 2 (one armed, one disarmed)", c.engine.Name, pr.RunsUsed)
		}
		checkViolations(t, pr.Violations, c.want...)
	}
}
