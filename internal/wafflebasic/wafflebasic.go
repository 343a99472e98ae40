// Package wafflebasic implements WaffleBasic (§3): TSVD's active delay
// injection design transplanted onto MemOrder instrumentation sites.
//
// WaffleBasic keeps all four of TSVD's design decisions: candidate
// identification in the same runs that inject, fixed 100 ms delays,
// probability decay, run-time happens-before inference, and unrestricted
// parallel delays. Its candidate set, probabilities, and inferred
// removals persist across runs, exactly like TSVD's. The engine itself is
// the one TSVD runs on, core.Online, configured by core.WaffleBasicConfig:
// TSVD's configuration under the MemOrder pair rule instead of the API
// pair rule. This package gives it the Tool face the detection harness
// drives.
package wafflebasic

import (
	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/trace"
)

// Tool is the WaffleBasic detector. Create with New; drive with
// core.Session.
type Tool struct {
	engine *core.Online
}

// New returns a WaffleBasic tool with the paper's defaults filled in (the
// same δ and fixed delay length as TSVD, §6.1).
func New(opts core.Options) *Tool {
	return &Tool{engine: core.NewOnline(core.WaffleBasicConfig(opts))}
}

// Name implements core.Tool.
func (t *Tool) Name() string { return "wafflebasic" }

// HookForRun implements core.Tool: every run identifies and injects.
func (t *Tool) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	t.engine.BeginRun()
	return t.engine
}

// RunStats implements core.Tool.
func (t *Tool) RunStats() core.DelayStats { return t.engine.Stats() }

// CurrentOptions implements core.Retunable (pass-through to the engine).
func (t *Tool) CurrentOptions() core.Options { return t.engine.CurrentOptions() }

// SetOptions implements core.Retunable (pass-through to the engine).
func (t *Tool) SetOptions(opts core.Options) { t.engine.SetOptions(opts) }

// LiveSites implements core.SiteProber (pass-through to the engine).
func (t *Tool) LiveSites() int { return t.engine.LiveSites() }

// Candidates implements core.Tool.
func (t *Tool) Candidates(site trace.SiteID) []core.Pair { return t.engine.Candidates(site) }

// Pairs returns the live candidate pairs in plan order.
func (t *Tool) Pairs() []core.Pair { return t.engine.Pairs() }

// InjectionSiteCount reports the distinct delay sites admitted to the
// candidate set so far (Table 2's MO "Injection Sites" metric).
func (t *Tool) InjectionSiteCount() int { return t.engine.InjectionSiteCount() }
