package server

import (
	"context"
	"fmt"

	"waffle/internal/control"
	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/obs"
)

// Engine is one detection tool under the corpus oracle.
type Engine struct {
	// Name labels the engine's controller targets and violations.
	Name string
	// NewTool builds a fresh tool for one session. A non-nil registry
	// (the session's controller target's) replaces the tool's own.
	NewTool func(metrics *obs.Registry) (core.Tool, error)
	// MaxRuns bounds each armed session. DisarmRuns bounds the disarmed
	// control; <= 0 skips it.
	MaxRuns, DisarmRuns int
}

// Verdict is one engine's judgement of one corpus program.
type Verdict struct {
	// Reports has one entry per planted bug, in manifest order: the
	// report that exposed it, nil on a miss or a rejected report.
	Reports []*core.BugReport
	// RunsUsed totals the runs of the engine's armed and disarmed
	// sessions.
	RunsUsed int
	// Violations lists oracle breaches: a report outside the manifest or
	// naming another object, an abnormal run, or a disarmed control that
	// reported a bug or faulted delay-free.
	Violations []string
}

// Judgement is the oracle's result for one corpus program.
type Judgement struct {
	Program *genprog.Program
	// Config is the configuration Program was generated from.
	Config   genprog.Config
	Size     genprog.Size
	Manifest *genprog.Manifest
	// Verdicts has one entry per engine, in the order Judge was given.
	Verdicts []Verdict
}

// Judge runs the ground-truth oracle on corpus program i: every planted
// bug armed alone under a fresh tool of each engine (bugs outer, engines
// inner), each report checked against the manifest and the armed object,
// then each engine's disarmed zero-false-positive control. Engine k's
// sessions are seeded by corpus position, bug and k alone, so without a
// controller a verdict depends neither on corpus scheduling nor on the
// other engines.
//
// Tools are stateful (probabilities decay across runs), so every session
// gets a fresh one. A session is named <program>/bug<k>/<engine> or
// <program>/disarmed/<engine>; its violations start with that name, and
// with an enabled controller it runs under the target of that name, its
// tool metered to the target's registry. Session metrics go to metrics.
func Judge(ctx context.Context, corpus CorpusSpec, i int, engines []Engine, ctl *control.Controller, metrics *obs.Registry) *Judgement {
	size, err := corpus.sizeFor(i)
	if err != nil {
		panic(err) // callers validate the corpus first
	}
	cfg := genprog.SizeConfig(corpus.Seed+int64(i), size)
	if corpus.TSO {
		cfg = genprog.TSOSizeConfig(corpus.Seed+int64(i), size)
	}
	p := genprog.Generate(cfg)
	m := p.Manifest()
	j := &Judgement{Program: p, Config: cfg, Size: size, Manifest: m, Verdicts: make([]Verdict, len(engines))}
	base := corpus.Seed + int64(i)*1_000_003

	// session runs one search of engine k and records its runs and
	// abnormal runs; nil means the tool could not be built.
	session := func(k int, name string, prog *core.SimProgram, budget int, seed int64) *core.Outcome {
		v := &j.Verdicts[k]
		tgt := ctl.Target(name)
		tool, err := engines[k].NewTool(tgt.Registry())
		if err != nil {
			v.fail(name, "%v", err)
			return nil
		}
		s := &core.Session{Prog: prog, Tool: tool, MaxRuns: budget, BaseSeed: seed, Metrics: metrics}
		if tgt != nil {
			s.Tuner = tgt
		}
		out := s.ExposeCtx(ctx)
		tgt.ObserveOutcome(out)
		v.RunsUsed += len(out.Runs)
		for _, err := range out.RunErrs() {
			if ctx.Err() != nil {
				break // cancellation noise, not an oracle breach
			}
			v.fail(name, "%v", err)
		}
		return out
	}

	for _, bug := range m.Bugs {
		armed := p.ArmOnly(bug.Index).Prog()
		for k, e := range engines {
			v, name := &j.Verdicts[k], fmt.Sprintf("%s/bug%d/%s", p.Name(), bug.Index, e.Name)
			seed := base + int64(bug.Index)*1009 + int64(k)*101 + 1
			var accepted *core.BugReport
			if out := session(k, name, armed, e.MaxRuns, seed); out != nil && out.Bug != nil {
				if err := m.Check(out.Bug); err != nil {
					v.fail(name, "%v", err)
				} else if out.Bug.ObjName() != bug.Obj {
					v.fail(name, "exposed %s, want %s", out.Bug.ObjName(), bug.Obj)
				} else {
					accepted = out.Bug
				}
			}
			v.Reports = append(v.Reports, accepted)
		}
	}

	// Disarmed controls: the zero-false-positive invariant. No delay
	// schedule an engine can produce may fault a fully guarded program.
	disarmed := p.DisarmAll().Prog()
	for k, e := range engines {
		if e.DisarmRuns <= 0 || ctx.Err() != nil {
			continue
		}
		name := fmt.Sprintf("%s/disarmed/%s", p.Name(), e.Name)
		out := session(k, name, disarmed, e.DisarmRuns, base+int64(k)*7+500_009)
		if out == nil {
			continue
		}
		if out.Bug != nil {
			j.Verdicts[k].fail(name, "false positive: %v", out.Bug)
		}
		if n := len(out.DelayFreeFaults); n > 0 {
			j.Verdicts[k].fail(name, "faulted delay-free in %d runs", n)
		}
	}
	return j
}

// fail records a violation of the named session.
func (v *Verdict) fail(name, format string, args ...any) {
	v.Violations = append(v.Violations, name+": "+fmt.Sprintf(format, args...))
}

// runProgram judges corpus program i under engine e and maps the verdict
// into the job's result record.
func runProgram(ctx context.Context, corpus CorpusSpec, i int, e Engine, ctl *control.Controller, metrics *obs.Registry) *ProgramResult {
	j := Judge(ctx, corpus, i, []Engine{e}, ctl, metrics)
	v := j.Verdicts[0]
	pr := &ProgramResult{
		Index:      i,
		Program:    j.Program.Name(),
		Seed:       j.Config.Seed,
		Size:       j.Size.String(),
		Bugs:       len(j.Manifest.Bugs),
		RunsUsed:   v.RunsUsed,
		Violations: v.Violations,
	}
	for b, bug := range j.Manifest.Bugs {
		br := BugResult{Bug: bug.Index, Kind: bug.Kind.String()}
		if rep := v.Reports[b]; rep != nil {
			br.Runs = rep.Run
			br.Delays = rep.Delays.Count
			if rep.Fence != nil {
				br.FenceAfter = string(rep.Fence.After)
				br.FenceBefore = string(rep.Fence.Before)
			}
		}
		pr.Outcomes = append(pr.Outcomes, br)
	}
	return pr
}
