// The zero-false-positive contract extended to the stale-read class: a
// StaleReadError in a run with zero injected delays is the program's own
// weak-memory bug manifesting unaided — TSO flush timing alone exposed
// it — so no tool may claim it as a delay-exposed bug. Like delay-free
// NULL-reference faults, it must surface through RunReport.Fault with
// the run classified RunFaultDelayFree.
package waffle_test

import (
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
)

// staleReadFaulter faults on its very first run with no perturbation:
// flush latency is pinned at 5ms while the reader probes 1-2ms after the
// cross-thread write, so the store is still buffered — observably stale —
// whenever UseFresh runs, under every tool's delay-free first run.
func staleReadFaulter() *core.SimProgram {
	return &core.SimProgram{
		Label: "stale-read-faulter",
		TSO: &memmodel.TSOConfig{
			Seed:     7,
			FlushMin: 5 * sim.Millisecond,
			FlushMax: 5 * sim.Millisecond,
		},
		Body: func(root *sim.Thread, h *memmodel.Heap) {
			r := h.NewRef("cfg")
			root.Sleep(1 * sim.Millisecond)
			r.Init(root, "boot/init") // buffered: commits 5ms later
			reader := root.Spawn("reader", func(th *sim.Thread) {
				th.Sleep(1 * sim.Millisecond)
				r.UseFresh(th, "reader/use") // init still pending: faults unaided
			})
			root.Join(reader)
		},
	}
}

func TestDelayFreeStaleReadYieldsNoBugReport(t *testing.T) {
	for name, mk := range zeroFPTools() {
		t.Run(name, func(t *testing.T) {
			s := &core.Session{Prog: staleReadFaulter(), Tool: mk(), MaxRuns: 6, BaseSeed: 1}
			out := s.Expose()
			checkDelayFreeOutcome(t, out)
			last := out.Runs[len(out.Runs)-1]
			if _, ok := last.Fault.Err.(*memmodel.StaleReadError); !ok {
				t.Fatalf("fault = %v, want a StaleReadError", last.Fault.Err)
			}
		})
	}
}
