package eval

import (
	"fmt"
	"sort"

	"waffle/internal/control"
	"waffle/internal/obs"
)

// AdaptiveArm summarizes one arm of the adaptive-vs-fixed comparison.
type AdaptiveArm struct {
	// TotalRuns sums every run every tool consumed across the corpus,
	// armed and disarmed sessions included.
	TotalRuns int `json:"total_runs"`
	// Exposed counts (bug, tool) exposures across the corpus.
	Exposed int `json:"exposed"`
	// Violations carries the arm's oracle breaches (must be empty).
	Violations int               `json:"violations"`
	Tools      []ToolDiffSummary `json:"tools"`
}

// AdaptiveReport is the payload of BENCH_adaptive.json: the same corpus
// swept twice — once fixed, once under the adaptive campaign controller —
// with the parity and savings verdicts the CI smoke gates on.
//
// The adaptive arm is not bit-deterministic: budget caps and pool sizes
// depend on which sessions finished first across worker goroutines, so
// two adaptive sweeps can differ in runs saved (never in violations —
// the zero-false-positive oracle applies unchanged). The report asserts
// parity and savings, not reproducibility.
type AdaptiveReport struct {
	Seed     int64       `json:"seed"`
	Programs int         `json:"programs"`
	MaxRuns  int         `json:"max_runs"`
	Fixed    AdaptiveArm `json:"fixed"`
	Adaptive AdaptiveArm `json:"adaptive"`
	// RunsSaved = Fixed.TotalRuns − Adaptive.TotalRuns. The acceptance
	// gate requires it strictly positive.
	RunsSaved int `json:"runs_saved"`
	// Parity reports that, per tool, the adaptive arm exposed every
	// (program, bug) the fixed arm exposed. Lost exposures are itemized
	// in Violations.
	Parity bool `json:"parity"`
	// Violations aggregates oracle breaches from both arms plus any
	// exposure-parity losses.
	Violations []string `json:"violations,omitempty"`
	// Retunes and Targets record what the controller actually did: every
	// decision event and each target's final parameters.
	Retunes []control.RetuneEvent `json:"retunes"`
	Targets []control.TargetState `json:"targets"`
	// Metrics is the controller's campaign snapshot (per-tool
	// runs-to-exposure histograms, delay overhead, decision counters) —
	// schema-validated by -validate-metrics like every BENCH artifact.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// exposedSet collects a report's per-tool exposed (program, bug) keys.
func exposedSet(r *DiffReport) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, pd := range r.Results {
		for _, oc := range pd.Outcomes {
			if oc.Runs <= 0 {
				continue
			}
			if out[oc.Tool] == nil {
				out[oc.Tool] = make(map[string]bool)
			}
			out[oc.Tool][fmt.Sprintf("%s/bug%d", pd.Program, oc.Bug)] = true
		}
	}
	return out
}

// RunAdaptiveComparison sweeps the same corpus twice — fixed, then under
// a fresh adaptive controller configured by ctrlCfg — and reports parity
// (the adaptive arm exposes a superset of the fixed arm's bugs, per
// tool) and run savings. o.Controller is overridden per arm; every other
// option (seed, corpus, budgets) is shared, so both arms search the
// identical program set.
func RunAdaptiveComparison(o DiffOptions, ctrlCfg control.Config) *AdaptiveReport {
	o = o.withDefaults()

	fo := o
	fo.Controller = nil
	fixed := RunDifferential(fo)

	ctrl := control.New(ctrlCfg)
	ao := o
	ao.Controller = ctrl
	adaptive := RunDifferential(ao)

	rep := &AdaptiveReport{
		Seed: o.Corpus.Seed, Programs: o.Corpus.Programs, MaxRuns: o.MaxRuns,
		Fixed:    summarizeArm(fixed),
		Adaptive: summarizeArm(adaptive),
		Parity:   true,
		Retunes:  ctrl.Events(),
		Targets:  ctrl.Targets(),
		Metrics:  ctrl.CampaignSnapshot(),
	}
	rep.RunsSaved = rep.Fixed.TotalRuns - rep.Adaptive.TotalRuns
	rep.Violations = append(rep.Violations, fixed.Violations...)
	rep.Violations = append(rep.Violations, adaptive.Violations...)

	fixedExp, adaptExp := exposedSet(fixed), exposedSet(adaptive)
	var lost []string
	for tool, keys := range fixedExp {
		for key := range keys {
			if !adaptExp[tool][key] {
				lost = append(lost, fmt.Sprintf("parity: %s lost exposure %s under adaptive control", tool, key))
			}
		}
	}
	sort.Strings(lost)
	if len(lost) > 0 {
		rep.Parity = false
		rep.Violations = append(rep.Violations, lost...)
	}
	return rep
}

func summarizeArm(r *DiffReport) AdaptiveArm {
	arm := AdaptiveArm{Tools: r.Tools, Violations: len(r.Violations)}
	for _, t := range r.Tools {
		arm.TotalRuns += t.TotalRuns
		arm.Exposed += t.Exposed
	}
	return arm
}
