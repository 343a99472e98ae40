package live

import (
	"time"

	"waffle/internal/core"
	"waffle/internal/obs"
	"waffle/internal/sim"
)

// Live-mode defaults. Window, Alpha, and Decay keep the paper's values;
// MinDelay and RunTimeout are wall-clock choices: a simulated run can
// afford a 100 ms near-miss window because virtual time is free, and so
// can a live run — the window is an analysis parameter, not a cost.
const (
	DefaultWindow     = 100 * time.Millisecond
	DefaultAlpha      = 1.15
	DefaultDecay      = 0.1
	DefaultFixedDelay = 100 * time.Millisecond
	DefaultMinDelay   = 100 * time.Microsecond
	DefaultRunTimeout = 30 * time.Second
	DefaultMaxRuns    = 50
)

// Options configures a live Detector. All durations are physical
// time.Durations; they are converted to the engines' tick space (one tick
// = one nanosecond on the wall clock) internally. The zero value means
// live defaults.
type Options struct {
	// Window is the near-miss window δ applied to the recorded wall-clock
	// trace.
	Window time.Duration

	// Alpha scales observed gaps into injected delay lengths (§4.3).
	Alpha float64

	// Decay is the per-unproductive-delay probability decay λ (§4.4).
	Decay float64

	// FixedDelay substitutes for variable lengths when FixedDelays is set.
	FixedDelay time.Duration

	// FixedDelays disables §4.3's variable delay lengths (the Table 7
	// ablation) — every injection sleeps FixedDelay.
	FixedDelays bool

	// NoInterferenceControl disables §4.4's interference-aware skipping.
	NoInterferenceControl bool

	// MinDelay floors computed variable delays.
	MinDelay time.Duration

	// MaxRuns bounds Detector.Expose when its maxRuns argument is <= 0.
	MaxRuns int

	// RunTimeout bounds each run's wall-clock time. A timed-out run leaks
	// its goroutines (Go cannot kill them); the detector records the run
	// as timed out and abandons its state: every shard is sealed so the
	// leaked writers' later events are dropped (counted by the
	// live.abandoned_events counter) instead of written into state the
	// detector has walked away from.
	RunTimeout time.Duration

	// SampleRate is the fraction of detection runs (requests, under the
	// Monitor) that execute instrumented; the rest run the plain body
	// uninstrumented and are marked RunReport.SampledOut. Admission is a
	// deterministic hash of (seed, run index) and never consumes injector
	// randomness, so 1.0 — the default, and the meaning of the zero value
	// — is bit-identical to an unsampled build. Values outside (0, 1] mean
	// 1.0.
	SampleRate float64

	// ObjectRate sub-samples objects within admitted runs: an accessed
	// object is instrumented only if its id passes a second deterministic
	// hash at this rate. 1.0 (and the zero value) instruments every
	// object.
	ObjectRate float64

	// SLO is the Monitor's overhead budget as a fraction of the baseline
	// p99 request latency: per admitted request, injected delays are
	// capped at SLO × p99(uninstrumented latency), so detection provably
	// cannot push the sampled p99 past (1 + SLO) × baseline p99 plus
	// scheduler noise. <= 0 disables the budget (unbounded injection).
	// Detector.Expose ignores SLO; it is enforced by the Monitor.
	SLO float64

	// Metrics receives campaign observability counters from the detector
	// and the engines it drives; the Registry's HTTP handler makes them
	// scrapeable mid-campaign. Nil disables all instrumentation.
	Metrics *obs.Registry

	// Tuner, when non-nil, is consulted by Detector.Expose at every run
	// boundary exactly like core.Session.Tuner: it can stop the search,
	// shrink the budget, or retune Alpha/Decay for subsequent runs. Retunes
	// are race-free by construction — each detection run's injector copies
	// the options at NewInjector, so goroutines leaked by a timed-out run
	// keep the options their run started with and never observe a retune.
	// The Monitor ignores Tuner; Monitor.Tune retunes it.
	Tuner core.Tuner
}

// withDefaults fills unset fields with the live defaults.
func (o Options) withDefaults() Options {
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
	if o.MaxRuns <= 0 {
		o.MaxRuns = DefaultMaxRuns
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = DefaultRunTimeout
	}
	if o.SampleRate <= 0 || o.SampleRate > 1 {
		o.SampleRate = 1
	}
	if o.ObjectRate <= 0 || o.ObjectRate > 1 {
		o.ObjectRate = 1
	}
	return o
}

// coreOptions maps live options into the clock-agnostic engines' tick
// space. Every duration field is set explicitly — core's defaults are
// denominated in virtual microseconds and would be three orders of
// magnitude off here. Instrumentation and trace-logging costs are
// disabled (-1 → 0 in WithDefaults): on the wall clock the overhead of
// the hook is physical and needs no modeling.
func (o Options) coreOptions() core.Options {
	return core.Options{
		Window:                     sim.Duration(o.Window.Nanoseconds()),
		Alpha:                      o.Alpha,
		Decay:                      o.Decay,
		FixedDelay:                 sim.Duration(o.FixedDelay.Nanoseconds()),
		MinDelay:                   sim.Duration(o.MinDelay.Nanoseconds()),
		InstrCost:                  -1,
		TraceCost:                  -1,
		DisableCustomLengths:       o.FixedDelays,
		DisableInterferenceControl: o.NoInterferenceControl,
		Metrics:                    o.Metrics,
	}
}
