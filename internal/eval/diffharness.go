package eval

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"waffle/internal/control"
	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/obs"
	"waffle/internal/sched"
	"waffle/internal/server"
	"waffle/internal/stats"
	"waffle/internal/trace"
)

// DiffOptions configures a differential-oracle sweep over a generated
// corpus. The zero value (plus a corpus seed) is a usable smoke
// configuration.
type DiffOptions struct {
	// Corpus selects the generated programs; Programs <= 0 means 25. On a
	// TSO corpus the waffle tool's analysis admits fork-ordered
	// write→read pairs as StaleRead candidates, and every stale-read
	// exposure's fence repair is replayed: the exposing schedule must run
	// clean on the fenced variant and reproduce on the unfenced one. The
	// baselines run unchanged (SC analysis, thread delays), quantifying
	// that visibility-delay injection is what exposes this class.
	Corpus server.CorpusSpec
	// MaxRuns bounds each armed Waffle/WaffleBasic session (preparation
	// included). <= 0 means 25.
	MaxRuns int
	// TSVDRuns bounds each armed TSVD session. TSVD instruments only
	// thread-unsafe API calls, so it can never expose a planted MemOrder
	// bug; a short budget demonstrates that without burning runs.
	// <= 0 means 6.
	TSVDRuns int
	// DisarmRuns bounds the disarmed zero-FP control sessions. <= 0 means
	// 12 — enough runs for every per-site probability to decay to zero,
	// so the schedule space the tools can reach has been exhausted.
	DisarmRuns int
	// Workers bounds corpus-level parallelism. <= 0 means GOMAXPROCS.
	Workers int
	// Metrics receives engine, session, and pool counters from every
	// session the sweep drives; the final snapshot lands in
	// DiffReport.Metrics. Nil disables instrumentation (and omits the
	// report section).
	Metrics *obs.Registry
	// Controller, when non-nil and enabled, attaches the adaptive campaign
	// controller: each session gets a per-target core.Tuner, its engine's
	// Options.Metrics is diverted to the controller's per-target registry
	// (so the controller can read inject.decay_floor_hits per session),
	// and outcomes feed back for campaign-wide budget reallocation.
	// Session-level Metrics stay on the global registry — the two layers
	// are independent by design. Nil (or a Disabled controller) leaves
	// Session.Tuner unset: the sweep is byte-identical to the fixed
	// harness.
	Controller *control.Controller
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Corpus.Programs <= 0 {
		o.Corpus.Programs = 25
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 25
	}
	if o.TSVDRuns <= 0 {
		o.TSVDRuns = 6
	}
	if o.DisarmRuns <= 0 {
		o.DisarmRuns = 12
	}
	return o
}

// engines returns the compared detectors in report order: waffle (with
// TSO analysis on a TSO corpus), wafflebasic and tsvd, each metered to
// the sweep's registry.
func (o DiffOptions) engines() []server.Engine {
	engine := func(spec server.EngineSpec, maxRuns int) server.Engine {
		return server.Engine{Name: spec.Kind, NewTool: spec.NewTool, MaxRuns: maxRuns, DisarmRuns: o.DisarmRuns}
	}
	return []server.Engine{
		engine(server.EngineSpec{Kind: server.KindWaffle, Core: core.Options{Metrics: o.Metrics, TSO: o.Corpus.TSO}}, o.MaxRuns),
		engine(server.EngineSpec{Kind: server.KindWaffleBasic, Core: core.Options{Metrics: o.Metrics}}, o.MaxRuns),
		engine(server.EngineSpec{Kind: server.KindTSVD}, o.TSVDRuns),
	}
}

// BugOutcome is one (bug, tool) cell of the differential table.
type BugOutcome struct {
	Bug  int    `json:"bug"`
	Kind string `json:"kind"`
	Tool string `json:"tool"`
	// Runs is the 1-based run that exposed the bug, 0 when the tool
	// missed it within its budget.
	Runs int `json:"runs"`
	// Delays counts the delays injected in the exposing run.
	Delays int `json:"delays,omitempty"`
}

// ProgramDiff is one generated program's differential result.
type ProgramDiff struct {
	Program  string       `json:"program"`
	Seed     int64        `json:"seed"`
	Size     string       `json:"size"`
	Bugs     int          `json:"bugs"`
	Threads  int          `json:"threads"`
	Objects  int          `json:"objects"`
	Outcomes []BugOutcome `json:"outcomes"`
	// RunsUsed totals the runs each tool consumed on this program, armed
	// and disarmed sessions included.
	RunsUsed   map[string]int `json:"runs_used"`
	Violations []string       `json:"violations,omitempty"`
	// reproFailed records that the program did not reproduce.
	reproFailed bool
}

// ToolDiffSummary aggregates one tool over the corpus. MeanRuns (and its
// CI) counts a missed bug as MaxRuns+1 — the whole budget spent plus the
// run that would still be needed — so means remain comparable across
// tools with different hit rates. The P50/P90/P99 order statistics are
// computed over exposing sessions ONLY (0 when nothing exposed): folding
// a sentinel into a percentile would report a "runs-to-exposure" no
// session ever achieved and make the tail track the miss rate rather
// than the exposure latency. Misses are reported explicitly in Missed.
type ToolDiffSummary struct {
	Tool         string  `json:"tool"`
	Sessions     int     `json:"sessions"` // armed sessions = planted bugs
	Exposed      int     `json:"exposed"`
	Missed       int     `json:"missed"`
	ExposureRate float64 `json:"exposure_rate"`
	MeanRuns     float64 `json:"mean_runs"`
	CI95Runs     float64 `json:"ci95_runs"` // 95% CI half-width of MeanRuns
	P50Runs      float64 `json:"p50_runs"`  // over exposing sessions only
	P90Runs      float64 `json:"p90_runs"`  // over exposing sessions only
	P99Runs      float64 `json:"p99_runs"`  // over exposing sessions only
	Delays       int     `json:"delays"`    // delays injected across exposing runs
	// TotalRuns counts every run the tool consumed across the corpus —
	// armed and disarmed sessions alike. This is the quantity the
	// adaptive controller competes on.
	TotalRuns int `json:"total_runs"`
}

// DiffReport is the full differential-oracle result: the payload of
// BENCH_gen.json and the object the acceptance tests assert on.
type DiffReport struct {
	Seed       int64 `json:"seed"`
	Programs   int   `json:"programs"`
	MaxRuns    int   `json:"max_runs"`
	PlantedUBI int   `json:"planted_ubi"`
	PlantedUAF int   `json:"planted_uaf"`
	// PlantedStale counts planted stale-read bugs (TSO corpora only).
	PlantedStale int               `json:"planted_stale,omitempty"`
	Tools        []ToolDiffSummary `json:"tools"`
	Results      []ProgramDiff     `json:"results"`
	// Violations aggregates every oracle breach across the corpus: a
	// report outside a manifest, a fault in a disarmed program, an
	// abnormal run, or a reproducibility divergence. Empty on a healthy
	// pipeline.
	Violations []string `json:"violations,omitempty"`
	// ReproOK reports that every program regenerated byte-identically and
	// that two preparation runs at one seed produced byte-identical traces
	// and plans.
	ReproOK bool `json:"repro_ok"`
	// Metrics is the campaign observability snapshot taken at the end of
	// the sweep, present when DiffOptions.Metrics was set. Its delay and
	// run counters cover every session the sweep drove.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Cancelled reports that the sweep's context died before the corpus
	// finished: Results covers the committed prefix only, and the
	// summaries describe that prefix, not the full corpus.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Summary returns the named tool's corpus summary.
func (r *DiffReport) Summary(tool string) (ToolDiffSummary, bool) {
	for _, s := range r.Tools {
		if s.Tool == tool {
			return s, true
		}
	}
	return ToolDiffSummary{}, false
}

// RunDifferential generates a corpus and runs the differential oracle:
// server.Judge under every tool, plus per-program reproducibility checks
// and, on a TSO corpus, fence-repair replays. The corpus fans out over a
// sched pool; per-program results are committed in index order, so the
// report is deterministic for a fixed seed.
func RunDifferential(o DiffOptions) *DiffReport {
	return RunDifferentialCtx(context.Background(), o)
}

// RunDifferentialCtx is RunDifferential under a caller context: once ctx
// is done no further program is scheduled, sessions in flight abort at
// their next run boundary (the simulator cancels mid-run), and the wave
// being executed when the context died is discarded — the report covers
// exactly the committed prefix and is flagged Cancelled. With a
// Background context the sweep is byte-identical to RunDifferential.
func RunDifferentialCtx(ctx context.Context, o DiffOptions) *DiffReport {
	o = o.withDefaults()
	return o.sweep(ctx, o.engines())
}

// sweep runs the differential oracle under engines with the defaulted
// options o.
func (o DiffOptions) sweep(ctx context.Context, engines []server.Engine) *DiffReport {
	rep := &DiffReport{Seed: o.Corpus.Seed, Programs: o.Corpus.Programs, MaxRuns: o.MaxRuns, ReproOK: true}

	poolWorkers := o.Workers
	if poolWorkers <= 0 {
		poolWorkers = runtime.GOMAXPROCS(0)
	}
	pool := sched.Pool{Workers: poolWorkers, Wave: poolWorkers, Metrics: o.Metrics,
		Tune: o.Controller.PoolTune(poolWorkers)}

	_, runErr := sched.RunCtx(ctx, pool, 0, o.Corpus.Programs-1, func(jctx context.Context, i int) (*ProgramDiff, error) {
		return o.diffProgram(jctx, i, engines), nil
	}, func(res sched.Result[*ProgramDiff]) bool {
		if res.Err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("program %d: %v", res.Index, res.Err))
			return true
		}
		pd := res.Value
		rep.Results = append(rep.Results, *pd)
		rep.Violations = append(rep.Violations, pd.Violations...)
		if pd.reproFailed {
			rep.ReproOK = false
		}
		return true
	})

	for k, e := range engines {
		s := ToolDiffSummary{Tool: e.Name}
		var runs, exposedRuns []float64 // all armed sessions (a miss counts budget+1), exposing ones
		for _, pd := range rep.Results {
			s.TotalRuns += pd.RunsUsed[e.Name]
			for _, out := range pd.Outcomes {
				if out.Tool != e.Name {
					continue
				}
				s.Sessions++
				if k == 0 {
					switch out.Kind {
					case core.UseBeforeInit.String():
						rep.PlantedUBI++
					case core.StaleRead.String():
						rep.PlantedStale++
					default:
						rep.PlantedUAF++
					}
				}
				if out.Runs > 0 {
					s.Exposed++
					s.Delays += out.Delays
					runs = append(runs, float64(out.Runs))
					exposedRuns = append(exposedRuns, float64(out.Runs))
				} else {
					// The budget+1 sentinel feeds the mean only;
					// percentiles must describe observed exposure
					// latencies, never a value synthesized for a miss.
					runs = append(runs, float64(e.MaxRuns+1))
				}
			}
		}
		s.Missed = s.Sessions - s.Exposed
		s.MeanRuns, s.CI95Runs = stats.MeanCI95(runs)
		s.P50Runs = stats.Percentile(exposedRuns, 50)
		s.P90Runs = stats.Percentile(exposedRuns, 90)
		s.P99Runs = stats.Percentile(exposedRuns, 99)
		if s.Sessions > 0 {
			s.ExposureRate = float64(s.Exposed) / float64(s.Sessions)
		}
		rep.Tools = append(rep.Tools, s)
	}
	if runErr != nil {
		rep.Cancelled = true
	}
	rep.Metrics = o.Metrics.Snapshot()
	return rep
}

// diffProgram judges corpus program i under every engine, then checks
// that the program reproduces and replays every stale-read exposure's
// fence repair. ctx aborts the program's sessions at their next run
// boundary; an uncancellable ctx leaves them byte-identical to the
// context-free harness.
func (o DiffOptions) diffProgram(ctx context.Context, i int, engines []server.Engine) *ProgramDiff {
	j := server.Judge(ctx, o.Corpus, i, engines, o.Controller, o.Metrics)
	p := j.Program
	pd := &ProgramDiff{
		Program:  p.Name(),
		Seed:     j.Config.Seed,
		Size:     j.Size.String(),
		Bugs:     len(j.Manifest.Bugs),
		Threads:  p.Threads(),
		Objects:  p.Objects(),
		RunsUsed: make(map[string]int, len(engines)),
	}
	if err := checkReproducible(p, j.Config); err != nil {
		pd.reproFailed = true
		pd.Violations = append(pd.Violations, fmt.Sprintf("%s: %v", p.Name(), err))
	}
	for b, bug := range j.Manifest.Bugs {
		for k, e := range engines {
			oc := BugOutcome{Bug: bug.Index, Kind: bug.Kind.String(), Tool: e.Name}
			rep := j.Verdicts[k].Reports[b]
			if rep != nil {
				oc.Runs = rep.Run
				oc.Delays = rep.Delays.Count
			}
			pd.Outcomes = append(pd.Outcomes, oc)
			if rep == nil || rep.Fence == nil {
				continue // only an accepted stale-read report carries a fence
			}
			// Repair verification: apply the proposed fence and replay the
			// exposing schedule — the stale read must be gone, and nothing
			// else may fault.
			name := fmt.Sprintf("%s/bug%d/%s", p.Name(), bug.Index, e.Name)
			fenced := p.ArmOnly(bug.Index).WithFence(rep.Fence.After).Prog()
			if rr := core.Replay(fenced, rep, core.Options{}); rr.Fault != nil {
				pd.Violations = append(pd.Violations, fmt.Sprintf("%s: fence at %s does not repair: %v", name, rep.Fence.After, rr.Fault.Err))
			}
			// And without the fence the same schedule reproduces.
			if rr := core.Replay(p.ArmOnly(bug.Index).Prog(), rep, core.Options{}); !rr.Reproduced {
				pd.Violations = append(pd.Violations, fmt.Sprintf("%s: exposing schedule did not replay: %s", name, rr))
			}
		}
	}
	for k, e := range engines {
		pd.RunsUsed[e.Name] = j.Verdicts[k].RunsUsed
		pd.Violations = append(pd.Violations, j.Verdicts[k].Violations...)
	}
	return pd
}

// checkReproducible asserts the per-seed bit-reproducibility claims:
// regeneration is byte-identical (script and manifest), and two
// preparation runs at one seed record byte-identical traces that analyze
// into byte-identical plans.
func checkReproducible(p *genprog.Program, cfg genprog.Config) error {
	q := genprog.Generate(cfg)
	if p.Fingerprint() != q.Fingerprint() {
		return fmt.Errorf("regeneration diverged for seed %d", cfg.Seed)
	}
	if !bytes.Equal(p.Manifest().JSON(), q.Manifest().JSON()) {
		return fmt.Errorf("manifest regeneration diverged for seed %d", cfg.Seed)
	}

	prepSeed := cfg.Seed*31 + 7
	var traces, plans [2]bytes.Buffer
	for k := range traces {
		tr, err := diffPrepTrace(p, prepSeed)
		if err != nil {
			return err
		}
		if err := tr.WriteBinary(&traces[k]); err != nil {
			return fmt.Errorf("encode trace: %w", err)
		}
		if err := core.Analyze(tr, core.Options{TSO: cfg.TSO}).WriteJSON(&plans[k]); err != nil {
			return fmt.Errorf("encode plan: %w", err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		return fmt.Errorf("preparation trace not reproducible at seed %d", prepSeed)
	}
	if !bytes.Equal(plans[0].Bytes(), plans[1].Bytes()) {
		return fmt.Errorf("plan not reproducible at seed %d", prepSeed)
	}
	return nil
}

// diffPrepTrace performs one delay-free preparation run and returns its
// trace.
func diffPrepTrace(p *genprog.Program, seed int64) (*trace.Trace, error) {
	wf := core.NewWaffle(core.Options{})
	wf.SetLabel(p.Name())
	hook := wf.HookForRun(1, nil)
	res := p.Prog().Execute(seed, hook)
	if res.Fault != nil {
		return nil, fmt.Errorf("preparation run faulted: %v", res.Fault.Err)
	}
	if res.Err != nil {
		return nil, fmt.Errorf("preparation run: %w", res.Err)
	}
	wf.FinishPreparation(&core.RunReport{Run: 1, End: res.End})
	tr := wf.PrepTrace()
	if tr == nil {
		return nil, fmt.Errorf("no preparation trace")
	}
	return tr, nil
}
