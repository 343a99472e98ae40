// Package server is the long-running campaign daemon: a job manager
// that accepts detection-campaign jobs over HTTP, fans each job's
// generated corpus over the shared internal/sched pool, runs every
// search as a core.Session over the detection tool the job names,
// streams incremental results, and journals every committed program to a
// JSONL file so a killed server resumes mid-corpus on restart.
//
// The tools own detection logic for one search; the manager here owns
// admission, priority, budgets, persistence, and cancellation. Program
// results commit in corpus order (internal/sched's in-order commit
// contract), so the journal cursor is always a contiguous prefix and
// resume is exact — no program reruns, none are skipped.
package server

import (
	"fmt"
	"time"

	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/obs"
	"waffle/internal/tsvd"
	"waffle/internal/wafflebasic"
)

// CorpusSpec names a generated ground-truth corpus: program i is
// genprog.Generate(SizeConfig(Seed+i, Size)).
type CorpusSpec struct {
	// Seed is the corpus base seed.
	Seed int64 `json:"seed"`
	// Programs is the corpus size. <= 0 means 25.
	Programs int `json:"programs"`
	// Size is the per-program scale: small | medium | large | mixed
	// (mixed cycles the three). Empty means small.
	Size string `json:"size,omitempty"`
	// TSO generates store-buffer corpora (genprog.TSOSizeConfig): programs
	// run under TSO semantics with planted stale-read bugs, and the job's
	// core engine options get TSO analysis enabled so exposures carry
	// fence-repair proposals.
	TSO bool `json:"tso,omitempty"`
}

// Validate rejects a corpus of unknown size.
func (c CorpusSpec) Validate() error {
	_, err := c.sizeFor(0)
	return err
}

// sizeFor resolves the scale for corpus index i.
func (c CorpusSpec) sizeFor(i int) (genprog.Size, error) {
	switch c.Size {
	case "", "small":
		return genprog.SizeSmall, nil
	case "medium":
		return genprog.SizeMedium, nil
	case "large":
		return genprog.SizeLarge, nil
	case "mixed":
		return genprog.Size(i % 3), nil
	}
	return 0, fmt.Errorf("server: unknown corpus size %q (want small|medium|large|mixed)", c.Size)
}

// Engine kinds a job may name.
const (
	KindWaffle      = "waffle"
	KindWaffleBasic = "wafflebasic"
	KindTSVD        = "tsvd"
)

// EngineSpec selects and parameterizes a job's detection tool. The zero
// value of each options struct means that tool's defaults, so
// {"kind": "waffle"} is a complete configuration.
type EngineSpec struct {
	// Kind selects the tool: waffle | wafflebasic | tsvd.
	Kind string `json:"kind"`
	// Core parameterizes the waffle and wafflebasic tools.
	Core core.Options `json:"core,omitempty"`
	// TSVD parameterizes the tsvd tool.
	TSVD tsvd.Options `json:"tsvd,omitempty"`
}

// NewTool builds a fresh tool of the spec's kind. Tools are stateful
// across runs (probabilities decay), so every search gets its own. A
// non-nil metrics replaces the core tools' registry.
func (e EngineSpec) NewTool(metrics *obs.Registry) (core.Tool, error) {
	opts := e.Core
	if metrics != nil {
		opts.Metrics = metrics
	}
	switch e.Kind {
	case KindWaffle:
		return core.NewWaffle(opts), nil
	case KindWaffleBasic:
		return wafflebasic.New(opts), nil
	case KindTSVD:
		return tsvd.New(e.TSVD), nil
	}
	return nil, fmt.Errorf("server: unknown engine kind %q (want %s, %s or %s)", e.Kind, KindWaffle, KindWaffleBasic, KindTSVD)
}

// JobSpec is one campaign job as submitted over the API.
type JobSpec struct {
	// Corpus selects the generated programs the job sweeps.
	Corpus CorpusSpec `json:"corpus"`
	// Engine selects and parameterizes the detection tool. An empty Kind
	// means waffle.
	Engine EngineSpec `json:"engine"`
	// MaxRuns bounds each armed session (preparation included). <= 0
	// means 25.
	MaxRuns int `json:"max_runs,omitempty"`
	// DisarmRuns bounds the disarmed zero-FP control session per program.
	// <= 0 means 12; negative disables the control entirely.
	DisarmRuns int `json:"disarm_runs,omitempty"`
	// Priority orders queued jobs: higher runs first, ties run in
	// submission order.
	Priority int `json:"priority,omitempty"`
	// Adaptive attaches the campaign controller: each session gets a
	// per-target tuner and the job reallocates budget as exposures
	// accumulate.
	Adaptive bool `json:"adaptive,omitempty"`
}

// withDefaults fills the documented defaults in.
func (s JobSpec) withDefaults() JobSpec {
	if s.Corpus.Programs <= 0 {
		s.Corpus.Programs = 25
	}
	if s.MaxRuns <= 0 {
		s.MaxRuns = 25
	}
	if s.DisarmRuns == 0 {
		s.DisarmRuns = 12
	}
	if s.Engine.Kind == "" {
		s.Engine.Kind = KindWaffle
	}
	if s.Corpus.TSO {
		// A TSO corpus implies TSO analysis for the core-driven engines;
		// the flag is a no-op for tsvd (its options are separate).
		s.Engine.Core.TSO = true
	}
	return s
}

// Validate rejects specs the manager cannot run. It is called on the
// defaulted spec, so callers see the effective configuration's errors.
func (s JobSpec) Validate() error {
	if err := s.Corpus.Validate(); err != nil {
		return err
	}
	if _, err := s.Engine.NewTool(nil); err != nil {
		return err
	}
	if s.Corpus.Programs > 100000 {
		return fmt.Errorf("server: corpus of %d programs exceeds the 100000 cap", s.Corpus.Programs)
	}
	return nil
}

// JobState is a job's lifecycle state. Transitions:
//
//	queued → running → completed
//	queued → cancelled            (cancel before dispatch)
//	running → cancelled           (cancel mid-corpus)
//	running → failed              (internal error)
//	running → queued              (server drain; the job resumes on restart)
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateCancelled JobState = "cancelled"
	StateFailed    JobState = "failed"
)

// terminal reports whether the state is final (no resume, no restart).
func (s JobState) terminal() bool {
	return s == StateCompleted || s == StateCancelled || s == StateFailed
}

// BugResult is one (planted bug, engine) outcome inside a program.
type BugResult struct {
	Bug  int    `json:"bug"`
	Kind string `json:"kind"`
	// Runs is the 1-based run that exposed the bug, 0 on a miss.
	Runs int `json:"runs"`
	// Delays counts delays injected in the exposing run.
	Delays int `json:"delays,omitempty"`
	// FenceAfter and FenceBefore carry the exposure's fence-repair
	// proposal (stale-read bugs only): insert a store-buffer fence after
	// the write at FenceAfter to order it before the read at FenceBefore.
	FenceAfter  string `json:"fence_after,omitempty"`
	FenceBefore string `json:"fence_before,omitempty"`
}

// ProgramResult is one committed corpus program: the unit of incremental
// progress the journal persists and the results endpoint streams.
type ProgramResult struct {
	// Index is the program's corpus position; results commit in index
	// order, so a job's results are always the contiguous prefix [0, N).
	Index   int    `json:"index"`
	Program string `json:"program"`
	Seed    int64  `json:"seed"`
	Size    string `json:"size"`
	Bugs    int    `json:"bugs"`
	// Outcomes has one entry per planted bug.
	Outcomes []BugResult `json:"outcomes,omitempty"`
	// RunsUsed totals the runs the engine consumed on this program,
	// armed and disarmed sessions included.
	RunsUsed int `json:"runs_used"`
	// Violations lists oracle breaches: a report outside the manifest, a
	// fault in the disarmed control, or an abnormal run. Empty on a
	// healthy engine.
	Violations []string `json:"violations,omitempty"`
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Cursor counts committed programs; the job's next program is
	// Cursor. Equals Spec.Corpus.Programs on completion.
	Cursor   int `json:"cursor"`
	Programs int `json:"programs"`
	// Exposed counts (bug, program) cells the engine exposed so far.
	Exposed int `json:"exposed"`
	// Violations counts oracle breaches so far (details ride on each
	// ProgramResult).
	Violations int `json:"violations"`
	// Resumed reports the job was recovered from the journal after a
	// restart with Cursor programs already committed.
	Resumed bool `json:"resumed,omitempty"`
	// Error is set when State is failed.
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
}
