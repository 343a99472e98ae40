// Tests for Session.ExposeCtx: a cancelled session stops at the next run
// boundary, and a Background context changes nothing.
package core_test

import (
	"context"
	"sync/atomic"
	"testing"

	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/memmodel"
)

// cancelAfter wraps a ContextProgram and fires cancel when execution
// number trigger starts, counting every execution (committed or not).
type cancelAfter struct {
	inner   core.ContextProgram
	trigger int32
	execs   atomic.Int32
	cancel  context.CancelFunc
}

func (c *cancelAfter) Name() string { return c.inner.Name() }

func (c *cancelAfter) Execute(seed int64, hook memmodel.Hook) core.ExecResult {
	return c.inner.Execute(seed, hook)
}

func (c *cancelAfter) ExecuteCtx(ctx context.Context, seed int64, hook memmodel.Hook) core.ExecResult {
	if c.execs.Add(1) == c.trigger {
		c.cancel()
	}
	return c.inner.ExecuteCtx(ctx, seed, hook)
}

// disarmedProg builds a generated program that never faults, so a session
// always spends its full budget — the setting where cancellation matters.
func disarmedProg(t *testing.T) core.ContextProgram {
	t.Helper()
	p := genprog.Generate(genprog.SizeConfig(42, genprog.SizeSmall))
	return p.DisarmAll().Prog()
}

// ExposeCtx stops at the first boundary after the cancel; the run the
// cancel interrupted is the last one recorded (as a run error), and no
// later run starts.
func TestExposeCtxCancelStopsAtBoundary(t *testing.T) {
	const maxRuns, trigger = 40, 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancelAfter{inner: disarmedProg(t), trigger: trigger, cancel: cancel}
	s := &core.Session{
		Prog:     prog,
		Tool:     core.NewWaffle(core.Options{}),
		MaxRuns:  maxRuns,
		BaseSeed: 7,
	}
	out := s.ExposeCtx(ctx)
	if got := int(prog.execs.Load()); got != trigger {
		t.Fatalf("search executed %d runs after a cancel at %d", got, trigger)
	}
	if len(out.Runs) != trigger {
		t.Fatalf("outcome has %d runs, want %d (the interrupted run included)", len(out.Runs), trigger)
	}
	last := out.Runs[len(out.Runs)-1]
	if last.Err == nil {
		t.Fatalf("interrupted run %d recorded no error", last.Run)
	}
}

// A Background context leaves the search byte-identical to the
// context-free entry point (Expose literally calls ExposeCtx, so this pins
// the wrapper direction too).
func TestExposeCtxBackgroundMatchesExpose(t *testing.T) {
	mk := func() *core.Session {
		return &core.Session{
			Prog:     disarmedProg(t),
			Tool:     core.NewWaffle(core.Options{}),
			MaxRuns:  12,
			BaseSeed: 7,
		}
	}
	a := mk().Expose()
	b := mk().ExposeCtx(context.Background())
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts diverged: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Run != rb.Run || ra.Seed != rb.Seed || ra.End != rb.End ||
			ra.Stats.Count != rb.Stats.Count || ra.Stats.Total != rb.Stats.Total ||
			ra.Outcome != rb.Outcome {
			t.Fatalf("run %d diverged between Expose and ExposeCtx(Background)", ra.Run)
		}
	}
}
