package core

import (
	"context"
	"fmt"

	"waffle/internal/memmodel"
	"waffle/internal/sched"
	"waffle/internal/trace"
)

// PlanDriven is an optional Tool capability: tools whose detection runs
// are fully determined by an immutable-structure Plan plus its mutable
// per-site probabilities. Such tools can run detection runs concurrently —
// each run injects from a private Plan snapshot — while the orchestrator
// keeps the shared plan's decay state exactly as a sequential search would
// have left it.
type PlanDriven interface {
	Tool
	// PrepRunCount reports how many leading runs prepare the plan before
	// detection can start: 0 when the tool was bootstrapped with a plan,
	// 1 when run 1 is the delay-free preparation run, and -1 when the tool
	// is not plan-driven at all (e.g. online same-run identification),
	// which disables parallel detection.
	PrepRunCount() int
	// DetectionPlan returns the shared plan detection runs snapshot from,
	// finalizing preparation (trace analysis) first if needed. prev is the
	// report of the last preparation run, nil when PrepRunCount is 0.
	DetectionPlan(prev *RunReport) *Plan
	// NewDetectionInjector returns a fresh injection hook reading from and
	// decaying the given plan (normally a clone of DetectionPlan's result).
	NewDetectionInjector(plan *Plan) *Injector
}

// specRun is one speculative detection run: the probability state it
// injected from, the clone it decayed, and what happened.
type specRun struct {
	start map[trace.SiteID]float64 // shared plan's Probs when the run began
	plan  *Plan                    // the run's private snapshot, post-decay
	res   ExecResult
	stats DelayStats
}

// ExposeParallel is Expose with detection runs fanned over a bounded
// worker pool. The outcome is bit-identical to Expose for the same
// session: run numbers, seeds, per-run stats, and the winning BugReport
// all match the sequential search.
//
// How: workers speculate from clones of the shared plan. Results commit
// strictly in run order between waves; a speculative run is accepted only
// if the shared plan's probabilities still equal the snapshot it injected
// from — the injector's behavior depends on nothing else that mutates —
// otherwise the run re-executes on the spot from the now-authoritative
// plan. Accepted clones fold back via Plan.MergeFrom (probabilities only
// decay, so min-merge reproduces the sequential state exactly). The first
// committed fault wins and, as in Expose, ends the search.
//
// Speculation pays off once probabilities stop changing — notably after
// they decay to zero — when every speculative run validates. Early runs,
// whose decays invalidate their wave-mates, degrade toward sequential
// cost but never change the result.
//
// Tools that are not plan-driven (and worker counts below 2) fall back to
// the sequential search.
func (s *Session) ExposeParallel(workers int) *Outcome {
	return s.ExposeParallelCtx(context.Background(), workers)
}

// ExposeParallelCtx is ExposeParallel under a caller context: preparation
// stops at the first run boundary after ctx is done, detection stops at
// the next wave boundary (a wave in flight when ctx dies is discarded —
// its runs never commit, so a cancelled search's outcome holds exactly
// the runs a sequential search would have completed before the cancel).
// With a Background context the search is byte-identical to
// ExposeParallel.
func (s *Session) ExposeParallelCtx(ctx context.Context, workers int) *Outcome {
	pd, ok := s.Tool.(PlanDriven)
	if !ok || pd.PrepRunCount() < 0 || workers <= 1 {
		return s.ExposeCtx(ctx)
	}
	st := s.begin()
	defer st.end()
	// Preparation runs are inherently sequential: the plan does not exist
	// until they finish. The sequential search runs them, then hands over
	// at the first detection run's boundary — the last chance to retune
	// (or stop) before workers start speculating.
	if !s.runs(ctx, st, st.firstDetection) {
		return st.out
	}

	// The shared plan. Mutated only inside commit (single-threaded,
	// between waves); workers read it only through Clone at job start.
	plan := pd.DetectionPlan(st.prev)

	job := func(ctx context.Context, run int) (specRun, error) {
		snap := plan.Clone()
		inj := pd.NewDetectionInjector(snap)
		res := s.executeDetection(ctx, s.BaseSeed+int64(run)-1, inj)
		return specRun{start: copyProbs(plan.Probs), plan: snap, res: res, stats: inj.Stats()}, nil
	}

	respec := s.Metrics.Counter("parallel.respeculations")
	commit := func(r sched.Result[specRun]) bool {
		run := r.Index
		if run > st.maxRuns {
			// The budget shrank below this index at an earlier boundary;
			// results are committed in order, so every later run is out of
			// budget too — stop the engine.
			return false
		}
		seed := s.BaseSeed + int64(run) - 1
		v := r.Value
		if r.Err != nil || !probsEqual(plan.Probs, v.start) {
			// The speculation is unusable: either the job itself died, or
			// an earlier run's decay means this run injected with
			// probabilities a sequential search would not have used.
			// Re-execute from the authoritative plan.
			respec.Inc()
			v = s.authoritativeRun(pd, plan, seed)
		}
		plan.MergeFrom(v.plan)
		rep, faulted := FoldRun(st.out, RunReport{Run: run, Seed: seed, Stats: v.stats}, v.res, s.Tool.Candidates, s.Metrics)
		if faulted {
			return false
		}
		// Boundary before run+1. Commits run single-threaded after the
		// wave's WaitGroup, so a retune applied here cannot race a worker;
		// it takes effect for the next wave's injectors.
		var stop bool
		st.maxRuns, stop = TuneBoundary(s.Tuner, s.Tool, st.out, run+1, st.maxRuns, rep, true)
		return !stop
	}

	sched.RunCtx(ctx, sched.Pool{Workers: workers, Budget: s.RunBudget, Metrics: s.Metrics}, st.firstDetection, st.maxRuns, job, commit)
	return st.out
}

// authoritativeRun performs one detection run synchronously against a
// fresh clone of the shared plan — the sequential search's behavior for
// that run, used when a speculative result failed validation.
func (s *Session) authoritativeRun(pd PlanDriven, plan *Plan, seed int64) specRun {
	ctx := context.Background()
	if s.RunBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.RunBudget)
		defer cancel()
	}
	snap := plan.Clone()
	inj := pd.NewDetectionInjector(snap)
	res := s.executeDetection(ctx, seed, inj)
	return specRun{start: copyProbs(plan.Probs), plan: snap, res: res, stats: inj.Stats()}
}

// executeDetection runs the program once, honoring the context when the
// program supports cancellation and converting panics out of the simulated
// world into run errors so one crashing run cannot take down the search.
func (s *Session) executeDetection(ctx context.Context, seed int64, hook memmodel.Hook) (res ExecResult) {
	defer func() {
		if r := recover(); r != nil {
			res = ExecResult{Err: fmt.Errorf("core: run panicked: %v", r)}
		}
	}()
	if cp, ok := s.Prog.(ContextProgram); ok {
		return cp.ExecuteCtx(ctx, seed, hook)
	}
	return s.Prog.Execute(seed, hook)
}

func copyProbs(m map[trace.SiteID]float64) map[trace.SiteID]float64 {
	out := make(map[trace.SiteID]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// probsEqual compares probability maps exactly: decay is deterministic
// arithmetic, so equal starting points yield bitwise-equal values.
func probsEqual(a, b map[trace.SiteID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
