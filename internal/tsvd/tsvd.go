// Package tsvd reimplements TSVD (Li et al., SOSP '19) — the
// thread-safety-violation detector whose design Waffle's paper adapts and
// departs from — to the extent the paper's evaluation exercises it:
// instrumentation-site and injection-site statistics (Table 2) and delay
// overlap measurements (§3.3).
//
// TSVD instruments call sites of thread-unsafe APIs only. At run time it
// maintains a candidate set of site pairs via near-miss tracking (same
// object, different threads, |τ1−τ2| ≤ δ, at least one write), removes
// pairs via happens-before inference, and injects fixed-length delays
// with probability decay, identifying and injecting in the same runs (§2).
// That is WaffleBasic's design under a different pair rule, so the engine
// is core.Online configured by core.TSVDConfig; this package gives it
// TSVD's options, its Table 2 counters and the Tool face.
package tsvd

import (
	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Options configures the detector. Zero values take TSVD's defaults (the
// same δ and delay length Waffle's evaluation uses, §6.1); a negative
// InstrCost means none.
type Options struct {
	Window     sim.Duration // near-miss window δ
	FixedDelay sim.Duration // delay length
	Decay      float64      // probability decay λ
	InstrCost  sim.Duration // per-instrumented-call overhead
}

// Tool is a TSVD instance. State (candidate set, probabilities, inferred
// removals) persists across runs; call BeginRun between runs. It
// implements memmodel.Hook and reacts only to thread-unsafe API kinds, and
// core.Tool so core.Session can drive it run by run. It is deliberately
// not core.Retunable, so the adaptive controller leaves its options alone.
type Tool struct {
	engine     *core.Online
	instrSites map[trace.SiteID]bool
}

// New returns a TSVD instance with defaults applied. The engine records no
// metrics.
func New(opts Options) *Tool {
	return &Tool{
		engine: core.NewOnline(core.TSVDConfig(core.Options{
			Window:     opts.Window,
			FixedDelay: opts.FixedDelay,
			Decay:      opts.Decay,
			InstrCost:  opts.InstrCost,
		})),
		instrSites: make(map[trace.SiteID]bool),
	}
}

// BeginRun resets per-run state, keeping the learned candidate set.
func (t *Tool) BeginRun() { t.engine.BeginRun() }

// Stats returns the current run's delay activity.
func (t *Tool) Stats() core.DelayStats { return t.engine.Stats() }

// InstrumentationSiteCount reports the number of unique thread-unsafe API
// call sites observed (Table 2's TSV "Instrumentation Sites").
func (t *Tool) InstrumentationSiteCount() int { return len(t.instrSites) }

// InjectionSiteCount reports the number of unique sites ever admitted to
// the candidate set, at either end of a pair (Table 2's TSV "Injection
// Sites").
func (t *Tool) InjectionSiteCount() int { return t.engine.InjectionSiteCount() }

// LiveSites implements core.SiteProber: the number of sites that can still
// inject — some un-removed pair and positive probability. Zero means the
// tool has gone quiet: every remaining run is injection-free, which lets
// the adaptive controller scale a quiet TSVD session to zero.
func (t *Tool) LiveSites() int { return t.engine.LiveSites() }

// Pairs returns the live candidate pairs {a,b} as [a,b] with a ≤ b,
// sorted.
func (t *Tool) Pairs() [][2]trace.SiteID {
	var out [][2]trace.SiteID
	for _, p := range t.engine.Pairs() {
		if p.Delay <= p.Target {
			out = append(out, [2]trace.SiteID{p.Delay, p.Target})
		}
	}
	return out
}

var (
	_ memmodel.Hook   = (*Tool)(nil)
	_ core.Tool       = (*Tool)(nil)
	_ core.SiteProber = (*Tool)(nil)
)

// Name implements core.Tool.
func (t *Tool) Name() string { return "tsvd" }

// HookForRun implements core.Tool: every run identifies and injects.
func (t *Tool) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	t.BeginRun()
	return t
}

// RunStats implements core.Tool.
func (t *Tool) RunStats() core.DelayStats { return t.Stats() }

// Candidates implements core.Tool. TSVD has no MemOrder candidate notion,
// so its unordered TSV site pairs involving site map through core.Pair for
// report display only, with zero kind, gap and count.
func (t *Tool) Candidates(site trace.SiteID) []core.Pair {
	var out []core.Pair
	for _, p := range t.engine.Candidates(site) {
		if p.Delay <= p.Target {
			out = append(out, core.Pair{Delay: p.Delay, Target: p.Target})
		}
	}
	return out
}

// OnAccess implements memmodel.Hook.
func (t *Tool) OnAccess(th *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if kind.IsAPI() {
		t.instrSites[site] = true
	}
	t.engine.OnAccess(th, site, obj, kind, dur)
}

// Exposure is the outcome of an Expose search.
type Exposure struct {
	Run  int // run in which the first TSV manifested (0 = none)
	TSVs int // violations manifested in that run
}

// Expose drives identification+injection runs against prog until a
// thread-safety violation manifests or maxRuns is exhausted — TSVD's
// end-to-end usage, for completeness of the baseline. Run i uses seed
// baseSeed+i−1; the tool's candidate set persists across runs.
func (t *Tool) Expose(prog interface {
	Execute(seed int64, hook memmodel.Hook) core.ExecResult
}, maxRuns int, baseSeed int64) Exposure {
	for run := 1; run <= maxRuns; run++ {
		t.BeginRun()
		res := prog.Execute(baseSeed+int64(run)-1, t)
		if res.TSVs > 0 {
			return Exposure{Run: run, TSVs: res.TSVs}
		}
	}
	return Exposure{}
}
