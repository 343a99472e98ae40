// The adaptive controller's invisibility contract: with the controller
// disabled (-adaptive off → nil Tuner, or a Disabled controller handing
// out nil targets), every session must behave byte-identically to a
// session built before the controller existed — same plans, same
// injection schedules, same outcomes, run for run. The tuning seam is a
// pure observation point until a decision is actually made.
package waffle_test

import (
	"bytes"
	"fmt"
	"testing"

	"waffle/internal/apps"
	"waffle/internal/control"
	"waffle/internal/core"
)

// outcomeBytes serializes everything observable about a session outcome:
// every run's seed, end time, delay activity (intervals included), and
// classification, plus the bug report and the tool's final plan.
func outcomeBytes(t *testing.T, out *core.Outcome, tool *core.Waffle) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "program=%s tool=%s total=%d base=%d\n",
		out.Program, out.Tool, int64(out.TotalTime), int64(out.BaseTime))
	for _, r := range out.Runs {
		fmt.Fprintf(&b, "run=%d seed=%d end=%d timeout=%v fault=%v outcome=%v count=%d total=%d skipped=%d\n",
			r.Run, r.Seed, int64(r.End), r.TimedOut, r.Fault != nil, r.Outcome,
			r.Stats.Count, int64(r.Stats.Total), r.Stats.Skipped)
		for _, iv := range r.Stats.Intervals {
			fmt.Fprintf(&b, "iv %s %d %d\n", iv.Site, int64(iv.Start), int64(iv.End))
		}
	}
	if out.Bug != nil {
		fmt.Fprintf(&b, "bug run=%d seed=%d site=%s ref=%s\n",
			out.Bug.Run, out.Bug.Seed, out.Bug.NullRef.Site, out.Bug.NullRef.Name)
	}
	fmt.Fprintf(&b, "delayfree=%v\n", out.DelayFreeFaults)
	if tool != nil && tool.Plan() != nil {
		fmt.Fprintf(&b, "plan ")
		if err := tool.Plan().WriteJSON(&b); err != nil {
			t.Fatalf("encode plan: %v", err)
		}
	}
	return b.Bytes()
}

// exposeWith runs one session over test with the given tuner wiring,
// returning the serialized observable result.
func exposeWith(t *testing.T, test *apps.Test, seed int64, tuner core.Tuner) []byte {
	t.Helper()
	tool := core.NewWaffle(core.Options{})
	s := &core.Session{Prog: test.Prog, Tool: tool, MaxRuns: 25, BaseSeed: seed, Tuner: tuner}
	return outcomeBytes(t, s.Expose(), tool)
}

// Over every built-in bug input: a session with no tuner, a session wired
// exactly as -adaptive=false wires it (a Disabled controller's Target is
// nil, so Tuner stays unset), and a session where a typed-nil
// *control.Target leaked into the Tuner interface all produce
// byte-identical plans, schedules, and outcomes.
func TestDisabledControllerByteIdenticalOnAllApps(t *testing.T) {
	disabled := control.New(control.Config{Disabled: true})
	for _, test := range apps.AllBugs() {
		for _, seed := range []int64{3, 17} {
			base := exposeWith(t, test, seed, nil)

			// -adaptive=false wiring: a Disabled controller hands out a nil
			// target and the session's Tuner stays unset.
			var tuner core.Tuner
			if tgt := disabled.Target(test.Name + "/waffle"); tgt != nil {
				t.Fatalf("%s: disabled controller handed out a live target", test.Name)
			}
			viaWiring := exposeWith(t, test, seed, tuner)
			if !bytes.Equal(base, viaWiring) {
				t.Errorf("%s seed %d: disabled-controller wiring diverged\nbase:\n%s\nwired:\n%s",
					test.Name, seed, base, viaWiring)
			}

			// Hostile variant: a typed-nil *control.Target assigned into the
			// interface. The nil-safe TuneRun must decide nothing.
			viaNilTarget := exposeWith(t, test, seed, (*control.Target)(nil))
			if !bytes.Equal(base, viaNilTarget) {
				t.Errorf("%s seed %d: typed-nil target diverged\nbase:\n%s\nnil target:\n%s",
					test.Name, seed, base, viaNilTarget)
			}
		}
	}
}
