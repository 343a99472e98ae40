// Package core implements the paper's primary contribution: the Waffle
// MemOrder bug detector (§4–§5).
//
// Waffle decomposes active delay injection into four design points and
// answers each differently from TSVD:
//
//  1. How to identify candidate locations — near-miss tracking plus a cheap
//     parent→child happens-before analysis over fork-propagated vector
//     clocks, instead of run-time happens-before inference (§4.1).
//  2. When to identify — in a dedicated delay-free preparation run whose
//     trace is analyzed offline, instead of the same run that injects (§4.2).
//  3. How long to delay — per-site variable lengths proportional to the
//     time gap observed in the unperturbed trace, instead of one fixed
//     constant (§4.3).
//  4. When to inject — probability decay plus interference-aware skipping
//     driven by a precomputed interference set, instead of unrestricted
//     parallel delays (§4.4).
//
// The package also houses the shared online identification engine that
// powers the WaffleBasic baseline (§3) and the "no preparation run"
// ablation of Table 7.
package core

import (
	"waffle/internal/obs"
	"waffle/internal/sim"
)

// Options configures a Waffle session. The zero value means "paper
// defaults"; the Disable* flags switch off one design point each, yielding
// the alternative designs evaluated in Table 7.
type Options struct {
	// Window is the near-miss window δ. The paper uses TSVD's default of
	// 100 ms for both Waffle and WaffleBasic (§6.1).
	Window sim.Duration

	// Alpha scales observed time gaps into injected delay lengths:
	// delay(ℓ) = Alpha · len(ℓ). The paper uses 1.15 (§4.3).
	Alpha float64

	// Decay is the probability decay constant λ: every unproductive delay
	// at a site lowers that site's future injection probability by Decay.
	Decay float64

	// FixedDelay is the delay length used when DisableCustomLengths is set
	// (and by WaffleBasic). The paper uses 100 ms (§3.2).
	FixedDelay sim.Duration

	// MinDelay floors computed variable delays so that a tiny observed gap
	// still yields a delay long enough to flip the order.
	MinDelay sim.Duration

	// InstrCost is the virtual cost the instrumentation adds to every
	// instrumented access (the proxy-function overhead).
	InstrCost sim.Duration

	// TraceCost is the additional per-access cost of trace logging during
	// the preparation run.
	TraceCost sim.Duration

	// MaxDetectionRuns bounds Session.Expose. The paper's evaluation caps
	// search at 50 runs (§6.2).
	MaxDetectionRuns int

	// TSO enables weak-memory analysis: programs run with per-thread store
	// buffers (SimProgram.TSO), the analyzer admits fork-ordered
	// write→read pairs as StaleRead candidates — order cannot invert, but
	// a buffered store can still be observed stale — and the injector
	// delays those stores' *visibility* (flush delays) instead of the
	// issuing thread. Off by default; every SC code path is untouched.
	TSO bool

	// Metrics receives campaign observability counters (delays injected and
	// skipped, decay floors, pairs pruned, phase spans). Nil disables all
	// instrumentation at effectively zero cost: hooks hold nil handles whose
	// methods no-op. Instruments only observe — they never consume
	// randomness or feed back into decisions — so plans and injection
	// schedules are byte-identical with and without a registry.
	Metrics *obs.Registry

	// Ablations (Table 7). Each disables exactly one §4 design point.

	// DisableParentChild skips the fork-clock pruning of §4.1, keeping
	// causally ordered pairs in the candidate set.
	DisableParentChild bool

	// DisablePrepRun abandons the dedicated preparation run of §4.2 and
	// identifies candidates online, in the same runs that inject.
	DisablePrepRun bool

	// DisableCustomLengths replaces §4.3's variable delays with FixedDelay.
	DisableCustomLengths bool

	// DisableInterferenceControl drops §4.4's interference set: delays are
	// injected even while an interfering delay is in flight.
	DisableInterferenceControl bool
}

// Paper-default parameter values.
const (
	DefaultWindow     = 100 * sim.Millisecond
	DefaultAlpha      = 1.15
	DefaultDecay      = 0.1
	DefaultFixedDelay = 100 * sim.Millisecond
	DefaultMinDelay   = 100 * sim.Microsecond
	DefaultInstrCost  = 700 * sim.Microsecond
	DefaultTraceCost  = 250 * sim.Microsecond
	DefaultMaxRuns    = 50
)

// WithDefaults returns o with every unset numeric field replaced by the
// paper's default value.
func (o Options) WithDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Decay <= 0 {
		o.Decay = DefaultDecay
	}
	if o.FixedDelay <= 0 {
		o.FixedDelay = DefaultFixedDelay
	}
	if o.MinDelay <= 0 {
		o.MinDelay = DefaultMinDelay
	}
	if o.InstrCost < 0 {
		o.InstrCost = 0
	} else if o.InstrCost == 0 {
		o.InstrCost = DefaultInstrCost
	}
	if o.TraceCost < 0 {
		o.TraceCost = 0
	} else if o.TraceCost == 0 {
		o.TraceCost = DefaultTraceCost
	}
	if o.MaxDetectionRuns <= 0 {
		o.MaxDetectionRuns = DefaultMaxRuns
	}
	return o
}

// delayFor computes the delay to inject at a site whose recorded gap length
// is gapLen, honoring the DisableCustomLengths ablation.
func (o Options) delayFor(gapLen sim.Duration) sim.Duration {
	if o.DisableCustomLengths {
		return o.FixedDelay
	}
	d := sim.Duration(float64(gapLen) * o.Alpha)
	if d < o.MinDelay {
		d = o.MinDelay
	}
	return d
}
