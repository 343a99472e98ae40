package eval

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/obs"
	"waffle/internal/server"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// runServerJob submits spec to a fresh campaign server and returns the
// job's committed results once it completes.
func runServerJob(t *testing.T, spec server.JobSpec) []*server.ProgramResult {
	t.Helper()
	m, err := server.New(server.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var results []*server.ProgramResult
	for {
		page, err := m.Results(context.Background(), st.ID, len(results), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, page.Results...)
		if page.Done {
			if page.State != server.StateCompleted {
				t.Fatalf("job ended %s", page.State)
			}
			return results
		}
	}
}

// A campaign-server waffle job and the differential harness's waffle
// column judge every program of a corpus alike: the same runs and delays
// per planted bug, and the same runs used per program.
func TestServerJobMatchesDiffHarness(t *testing.T) {
	for _, tso := range []bool{false, true} {
		t.Run(fmt.Sprintf("tso=%v", tso), func(t *testing.T) {
			corpus := server.CorpusSpec{Seed: 1000, Programs: 25, Size: "mixed", TSO: tso}
			rep := RunDifferential(DiffOptions{Corpus: corpus, Workers: 2})
			got := runServerJob(t, server.JobSpec{Corpus: corpus})
			if len(got) != len(rep.Results) {
				t.Fatalf("server committed %d programs, harness %d", len(got), len(rep.Results))
			}
			cells := 0
			for i, pr := range got {
				pd := rep.Results[i]
				if pr.Program != pd.Program || pr.Seed != pd.Seed || pr.Size != pd.Size || pr.Bugs != pd.Bugs {
					t.Fatalf("program %d: server %s (seed %d, %s, %d bugs), harness %s (seed %d, %s, %d bugs)",
						i, pr.Program, pr.Seed, pr.Size, pr.Bugs, pd.Program, pd.Seed, pd.Size, pd.Bugs)
				}
				if len(pr.Violations) > 0 || len(pd.Violations) > 0 {
					t.Fatalf("%s: violations: server %v, harness %v", pr.Program, pr.Violations, pd.Violations)
				}
				if pr.RunsUsed != pd.RunsUsed["waffle"] {
					t.Errorf("%s: server used %d runs, harness waffle %d", pr.Program, pr.RunsUsed, pd.RunsUsed["waffle"])
				}
				var waffle []BugOutcome
				for _, oc := range pd.Outcomes {
					if oc.Tool == "waffle" {
						waffle = append(waffle, oc)
					}
				}
				if len(pr.Outcomes) != len(waffle) {
					t.Fatalf("%s: server has %d outcomes, harness waffle %d", pr.Program, len(pr.Outcomes), len(waffle))
				}
				for k, oc := range pr.Outcomes {
					want := waffle[k]
					if oc.Bug != want.Bug || oc.Kind != want.Kind || oc.Runs != want.Runs || oc.Delays != want.Delays {
						t.Errorf("%s bug %d: server %+v, harness %+v", pr.Program, oc.Bug, oc, want)
					}
					cells++
				}
			}
			if cells == 0 {
				t.Fatal("no planted bugs compared")
			}
		})
	}
}

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

// The harness reports every verdict of the oracle — a report outside the
// manifest, a disarmed false positive, a disarmed delay-free fault — and
// none of them clears ReproOK, which covers reproducibility alone.
func TestDiffHarnessVerdicts(t *testing.T) {
	engine := func(name string, delays int) server.Engine {
		return server.Engine{
			Name:       name,
			NewTool:    func(*obs.Registry) (core.Tool, error) { return faultTool{delays}, nil },
			MaxRuns:    4,
			DisarmRuns: 4,
		}
	}
	o := DiffOptions{Corpus: server.CorpusSpec{Seed: 99, Programs: 1}, Workers: 1}.withDefaults()
	rep := o.sweep(context.Background(), []server.Engine{engine("delayed", 1), engine("delay-free", 0)})
	want := []string{
		"gen-small-s99/bug0/delayed: genprog: fault outside the manifest",
		"gen-small-s99/disarmed/delayed: false positive",
		"gen-small-s99/disarmed/delay-free: faulted delay-free in 1 runs",
	}
	if len(rep.Violations) != len(want) {
		t.Fatalf("%d violations %q, want %d", len(rep.Violations), rep.Violations, len(want))
	}
	for k, w := range want {
		if !strings.Contains(rep.Violations[k], w) {
			t.Errorf("violation %d = %q, want it to contain %q", k, rep.Violations[k], w)
		}
	}
	if !rep.ReproOK {
		t.Error("oracle violations cleared ReproOK")
	}
	for _, s := range rep.Tools {
		if s.Exposed != 0 || s.TotalRuns != 2 {
			t.Errorf("%s: exposed %d, %d runs; want 0 exposed in 2 runs (one armed, one disarmed)", s.Tool, s.Exposed, s.TotalRuns)
		}
	}
}
