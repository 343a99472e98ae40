package core

import (
	"context"
	"errors"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/vclock"
)

// ContextProgram is an optional Program capability: executions that honor
// a wall-clock cancellation context. Session.ExposeCtx uses it to abort
// the run in flight when its context is done; programs without it simply
// run to completion.
type ContextProgram interface {
	Program
	// ExecuteCtx runs the program once, aborting with an ErrCanceled-style
	// Err when ctx is done before the run finishes.
	ExecuteCtx(ctx context.Context, seed int64, hook memmodel.Hook) ExecResult
}

// SimProgram adapts a scenario body to the Program interface: each Execute
// builds a fresh world and heap, attaches a root vector clock (the TLS
// analog the instrumenter plants in every thread), installs the tool's
// hook, and runs the body. Once the run is over, Execute releases the
// world and heap, so their threads and reference cells serve later runs.
type SimProgram struct {
	// Label names the program/test in reports.
	Label string
	// MaxTime is the per-run virtual-time budget; runs exceeding it are
	// reported TimedOut (Table 5/6's "TimeOut" entries). Zero = no limit.
	MaxTime sim.Duration
	// Jitter is the relative duration spread applied to Work calls,
	// modelling run-to-run timing variation.
	Jitter float64
	// OpCost overrides the heap's intrinsic per-access cost when nonzero.
	OpCost sim.Duration
	// SyncObs, when set, is installed as the world's synchronization
	// observer for every run — the hook lock-order tools ride. Mutually
	// exclusive with FullHB (which installs its own observer).
	SyncObs sim.SyncObserver
	// TSO, when non-nil, runs every execution under store-buffer (TSO)
	// semantics: the heap buffers Init/Dispose transitions per thread with
	// seeded flush timing. The flush RNG is seeded TSO.Seed⊕f(run seed) so
	// commit latencies vary across runs like scheduling does, while equal
	// (config, seed) pairs stay bit-reproducible.
	TSO *memmodel.TSOConfig
	// FullHB installs complete happens-before tracking for the run: the
	// simulator's release/acquire edges (locks, queues, events, joins)
	// fold into the thread clocks, so recorded traces carry the full
	// relation instead of just fork edges. This is the expensive analysis
	// §4.1 weighs against Waffle's partial one; the eval package uses it
	// to quantify the trade-off.
	FullHB bool
	// Body is the scenario: application threads performing instrumented
	// object operations against the heap. The world and heap are released
	// when the run ends, so the body must keep none of the run's threads,
	// reference cells or sim synchronization primitives for a later run:
	// declare them inside the body.
	Body func(t *sim.Thread, h *memmodel.Heap)
}

// Name implements Program.
func (p *SimProgram) Name() string { return p.Label }

// Execute implements Program.
func (p *SimProgram) Execute(seed int64, hook memmodel.Hook) ExecResult {
	return p.execute(nil, seed, hook)
}

// ExecuteCtx implements ContextProgram: the world aborts with ErrCanceled
// at the next scheduler event after ctx is done.
func (p *SimProgram) ExecuteCtx(ctx context.Context, seed int64, hook memmodel.Hook) ExecResult {
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	return p.execute(cancel, seed, hook)
}

func (p *SimProgram) execute(cancel <-chan struct{}, seed int64, hook memmodel.Hook) ExecResult {
	w := sim.NewWorld(sim.Config{Seed: seed, Jitter: p.Jitter, MaxTime: p.MaxTime, Cancel: cancel})
	switch {
	case p.FullHB:
		tracker := vclock.NewSyncTracker()
		w.SetSyncObserver(tracker.Observe)
	case p.SyncObs != nil:
		w.SetSyncObserver(p.SyncObs)
	}
	h := memmodel.NewHeap()
	if p.OpCost > 0 {
		h.SetOpCost(p.OpCost)
	}
	if p.TSO != nil {
		c := *p.TSO
		c.Seed ^= seed * 0x9E3779B9
		h.EnableTSO(c)
	}
	h.SetHook(hook)
	err := w.Run(func(root *sim.Thread) {
		vclock.Attach(root)
		p.Body(root, h)
	})
	res := ExecResult{End: w.Now(), Err: err, TSVs: len(h.TSVs())}
	if err != nil {
		res.Fault = w.Fault()
		if errors.Is(err, sim.ErrTimeout) {
			res.TimedOut = true
		}
	}
	// The run owns its world and heap alone, and res holds nothing of
	// theirs: hand their memory to the next run.
	h.Release()
	w.Release()
	return res
}
