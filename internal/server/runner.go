package server

import (
	"context"
	"fmt"

	"waffle/internal/control"
	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/obs"
)

// runProgram executes the full oracle for one corpus program: every
// planted bug armed in isolation under a fresh tool, then a disarmed
// zero-FP control. It mirrors the eval diff harness program-for-program
// so campaign results and benchmark results agree, but runs the tool the
// job names instead of a hard-coded tool set.
//
// Tools are stateful (probabilities decay across runs), so every session
// gets a fresh tool: that is what keeps sessions independent of corpus
// scheduling order.
func runProgram(ctx context.Context, spec JobSpec, i int, ctl *control.Controller, metrics *obs.Registry) *ProgramResult {
	size, err := spec.Corpus.sizeFor(i)
	if err != nil {
		// Validate() rejects bad sizes at admission; reaching here is a bug.
		panic(err)
	}
	cfg := genprog.SizeConfig(spec.Corpus.Seed+int64(i), size)
	if spec.Corpus.TSO {
		cfg = genprog.TSOSizeConfig(spec.Corpus.Seed+int64(i), size)
	}
	p := genprog.Generate(cfg)
	m := p.Manifest()
	pr := &ProgramResult{
		Index:   i,
		Program: p.Name(),
		Seed:    cfg.Seed,
		Size:    size.String(),
		Bugs:    len(m.Bugs),
	}
	fail := func(format string, args ...any) {
		pr.Violations = append(pr.Violations, fmt.Sprintf("%s: ", p.Name())+fmt.Sprintf(format, args...))
	}

	// runSession runs one search under a fresh tool, wiring the adaptive
	// controller's per-target tuner when the job asked for one: the tool's
	// own metrics divert to the target's registry (the controller reads
	// per-session decay counters there) while session-level metrics stay
	// on the campaign registry.
	runSession := func(target string, prog *genprog.Program, budget int, seed int64) (*core.Outcome, error) {
		var tgt *control.Target
		var toolMetrics *obs.Registry
		if ctl != nil {
			if tgt = ctl.TargetWithRegistry(target, obs.New()); tgt != nil {
				toolMetrics = tgt.Registry()
			}
		}
		tool, err := spec.Engine.tool(toolMetrics)
		if err != nil {
			return nil, err
		}
		s := &core.Session{Prog: prog.Prog(), Tool: tool, MaxRuns: budget, BaseSeed: seed, Metrics: metrics}
		if tgt != nil {
			s.Tuner = tgt
		}
		out := s.ExposeCtx(ctx)
		tgt.ObserveOutcome(out)
		return out, nil
	}

	// Armed sessions: each planted bug in isolation.
	for _, bug := range m.Bugs {
		seed := spec.Corpus.Seed + int64(i)*1_000_003 + int64(bug.Index)*1009 + 1
		out, err := runSession(fmt.Sprintf("%s/bug%d", p.Name(), bug.Index), p.ArmOnly(bug.Index), spec.MaxRuns, seed)
		if err != nil {
			fail("bug %d armed: %v", bug.Index, err)
			continue
		}
		pr.RunsUsed += len(out.Runs)
		br := BugResult{Bug: bug.Index, Kind: bug.Kind.String()}
		if out.Bug != nil {
			if err := m.Check(out.Bug); err != nil {
				fail("bug %d armed: %v", bug.Index, err)
			} else if out.Bug.ObjName() != bug.Obj {
				fail("bug %d armed: exposed %s, want %s", bug.Index, out.Bug.ObjName(), bug.Obj)
			} else {
				br.Runs = out.Bug.Run
				br.Delays = out.Bug.Delays.Count
				if out.Bug.Fence != nil {
					br.FenceAfter = string(out.Bug.Fence.After)
					br.FenceBefore = string(out.Bug.Fence.Before)
				}
			}
		}
		for _, err := range out.RunErrs() {
			if ctx.Err() != nil {
				break // cancellation noise, not an oracle breach
			}
			fail("bug %d armed: %v", bug.Index, err)
		}
		pr.Outcomes = append(pr.Outcomes, br)
	}

	// Disarmed control: the zero-false-positive invariant. No delay
	// schedule the engine can produce may fault a fully guarded program.
	if spec.DisarmRuns > 0 && ctx.Err() == nil {
		seed := spec.Corpus.Seed + int64(i)*1_000_003 + 500_009
		out, err := runSession(p.Name()+"/disarmed", p.DisarmAll(), spec.DisarmRuns, seed)
		if err != nil {
			fail("disarmed: %v", err)
		} else {
			pr.RunsUsed += len(out.Runs)
			if out.Bug != nil {
				fail("disarmed control reported a bug at %s — false positive", out.Bug.FaultSite())
			}
			if n := len(out.DelayFreeFaults); n > 0 {
				fail("disarmed control faulted delay-free in %d runs", n)
			}
			for _, err := range out.RunErrs() {
				if ctx.Err() != nil {
					break
				}
				fail("disarmed: %v", err)
			}
		}
	}
	return pr
}
