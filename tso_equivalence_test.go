// The TSO mode's invisibility contract: store-buffer simulation is a
// strict opt-in, and even when enabled with zero flush latency it is
// indistinguishable from sequential consistency. Every store a thread
// buffers with zero latency commits before any other thread can run, so
// plans, schedules, traces, and outcomes must be byte-identical to a
// plain heap — run for run. This pins the SC suite against regressions
// from the TSO plumbing: every gated code path (view, buffer,
// commitMature) executes, and none may change an observable byte.
package waffle_test

import (
	"bytes"
	"testing"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/memmodel"
)

// exposeProg runs one Waffle session over an explicit program and returns
// the serialized observable result (outcomeBytes from the tuner tests).
func exposeProg(t *testing.T, prog core.Program, seed int64) []byte {
	t.Helper()
	tool := core.NewWaffle(core.Options{})
	s := &core.Session{Prog: prog, Tool: tool, MaxRuns: 25, BaseSeed: seed}
	return outcomeBytes(t, s.Expose(), tool)
}

// Over every built-in bug input: a plain session and a session whose
// program runs under TSO with zero-latency flushes (FlushMin < 0) produce
// byte-identical plans, schedules, and outcomes.
func TestZeroLatencyTSOByteIdenticalOnAllApps(t *testing.T) {
	for _, test := range apps.AllBugs() {
		sp, ok := test.Prog.(*core.SimProgram)
		if !ok {
			t.Fatalf("%s: built-in test is not a *core.SimProgram", test.Name)
		}
		base := exposeProg(t, test.Prog, 11)

		cp := *sp
		cp.TSO = &memmodel.TSOConfig{Seed: 1234, FlushMin: -1}
		got := exposeProg(t, &cp, 11)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: zero-latency TSO diverged from SC\nplain:\n%s\ntso:\n%s",
				test.Name, base, got)
		}
	}
}
