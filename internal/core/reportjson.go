package core

import (
	"encoding/json"
	"fmt"
	"io"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Machine-readable bug reports: §5 says the runtime records "the relevant
// run-time context (i.e., faulty input, candidate locations involved,
// stack traces for all threads, and delay value information) as part of
// the bug report". This is that artifact as JSON, consumed by CI
// integrations and by the replay harness.

type bugReportJSON struct {
	Program string `json:"program"`
	Tool    string `json:"tool"`
	Kind    string `json:"kind"`
	Run     int    `json:"run"`
	Seed    int64  `json:"seed"`

	Fault struct {
		Error    string   `json:"error"`
		Thread   int      `json:"thread"`
		Name     string   `json:"thread_name"`
		AtUS     int64    `json:"at_us"`
		Op       string   `json:"op"`
		Stacks   []string `json:"stacks"`
		Site     string   `json:"site"`
		Object   int64    `json:"object"`
		ObjName  string   `json:"object_name"`
		RefState string   `json:"ref_state"`

		// Stale-read extras (TSO mode only; absent on SC reports, keeping
		// the sequential-consistency wire form byte-identical).
		CoherentState string `json:"coherent_state,omitempty"`
		PendingSite   string `json:"pending_site,omitempty"`
		PendingKind   string `json:"pending_kind,omitempty"`
		PendingTID    int    `json:"pending_tid,omitempty"`
		VisibleAtUS   int64  `json:"visible_at_us,omitempty"`
	} `json:"fault"`

	// Fence is the stale-read repair proposal (TSO mode only).
	Fence *FenceProposal `json:"fence,omitempty"`

	Candidates []Pair `json:"candidates"`

	Delays struct {
		Count   int   `json:"count"`
		TotalUS int64 `json:"total_us"`
		Skipped int   `json:"skipped"`
	} `json:"delays"`
}

// WriteJSON serializes the report.
func (b *BugReport) WriteJSON(w io.Writer) error {
	var out bugReportJSON
	out.Program = b.Program
	out.Tool = b.Tool
	out.Kind = b.Kind().String()
	out.Run = b.Run
	out.Seed = b.Seed
	if b.Fault != nil {
		out.Fault.Error = b.Fault.Err.Error()
		out.Fault.Thread = b.Fault.Thread
		out.Fault.Name = b.Fault.Name
		out.Fault.AtUS = int64(b.Fault.T)
		out.Fault.Op = b.Fault.Op
		out.Fault.Stacks = b.Fault.Stacks
	}
	if b.NullRef != nil {
		out.Fault.Site = string(b.NullRef.Site)
		out.Fault.Object = int64(b.NullRef.Obj)
		out.Fault.ObjName = b.NullRef.Name
		out.Fault.RefState = b.NullRef.State.String()
	}
	if b.Stale != nil {
		out.Fault.Site = string(b.Stale.Site)
		out.Fault.Object = int64(b.Stale.Obj)
		out.Fault.ObjName = b.Stale.Name
		out.Fault.RefState = b.Stale.Observed.String()
		out.Fault.CoherentState = b.Stale.Coherent.String()
		out.Fault.PendingSite = string(b.Stale.PendingSite)
		out.Fault.PendingKind = b.Stale.PendingKind.String()
		out.Fault.PendingTID = b.Stale.PendingTID
		out.Fault.VisibleAtUS = int64(b.Stale.VisibleAt)
	}
	out.Fence = b.Fence
	out.Candidates = b.Candidates
	out.Delays.Count = b.Delays.Count
	out.Delays.TotalUS = int64(b.Delays.Total)
	out.Delays.Skipped = b.Delays.Skipped

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadBugReportJSON loads a report written by WriteJSON. The fault is
// reconstructed to the fidelity the wire format carries (enough for
// replay: seed, site, object, kind, candidates). A kind other than the
// three BugKinds is an error.
func ReadBugReportJSON(r io.Reader) (*BugReport, error) {
	var in bugReportJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	b := &BugReport{
		Program:    in.Program,
		Tool:       in.Tool,
		Run:        in.Run,
		Seed:       in.Seed,
		Candidates: in.Candidates,
	}
	var faultErr error
	switch in.Kind {
	case StaleRead.String():
		b.Stale = &memmodel.StaleReadError{
			Obj:         trace.ObjID(in.Fault.Object),
			Name:        in.Fault.ObjName,
			Site:        trace.SiteID(in.Fault.Site),
			Observed:    stateFromString(in.Fault.RefState),
			Coherent:    stateFromString(in.Fault.CoherentState),
			PendingSite: trace.SiteID(in.Fault.PendingSite),
			PendingKind: kindFromString(in.Fault.PendingKind),
			PendingTID:  in.Fault.PendingTID,
			VisibleAt:   sim.Time(in.Fault.VisibleAtUS),
		}
		b.Fence = in.Fence
		faultErr = b.Stale
	case UseBeforeInit.String(), UseAfterFree.String():
		b.NullRef = &memmodel.NullRefError{
			Obj:   trace.ObjID(in.Fault.Object),
			Name:  in.Fault.ObjName,
			Site:  trace.SiteID(in.Fault.Site),
			State: stateFromString(in.Fault.RefState),
		}
		faultErr = b.NullRef
	default:
		return nil, fmt.Errorf("core: unknown bug report kind %q (want %v, %v or %v)", in.Kind, UseBeforeInit, UseAfterFree, StaleRead)
	}
	b.Fault = &sim.Fault{
		Err:    faultErr,
		Thread: in.Fault.Thread,
		Name:   in.Fault.Name,
		T:      sim.Time(in.Fault.AtUS),
		Op:     in.Fault.Op,
		Stacks: in.Fault.Stacks,
	}
	b.Delays = DelayStats{
		Count:   in.Delays.Count,
		Total:   sim.Duration(in.Delays.TotalUS),
		Skipped: in.Delays.Skipped,
	}
	return b, nil
}

// stateFromString parses a lifecycle state rendered by State.String.
func stateFromString(s string) memmodel.State {
	switch s {
	case memmodel.StateLive.String():
		return memmodel.StateLive
	case memmodel.StateDisposed.String():
		return memmodel.StateDisposed
	default:
		return memmodel.StateNil
	}
}

// kindFromString parses an access kind rendered by Kind.String.
func kindFromString(s string) trace.Kind {
	for k := trace.KindInit; k <= trace.KindAPIWrite; k++ {
		if k.String() == s {
			return k
		}
	}
	return trace.KindInit
}
