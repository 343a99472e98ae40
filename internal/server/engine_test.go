package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"waffle/internal/core"
	"waffle/internal/genprog"
)

func TestEngineSpecSelectsEveryKind(t *testing.T) {
	for _, kind := range []string{KindWaffle, KindWaffleBasic, KindTSVD} {
		tool, err := EngineSpec{Kind: kind}.tool(nil)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if tool.Name() != kind {
			t.Fatalf("kind %q built tool %q", kind, tool.Name())
		}
	}
}

func TestEngineSpecRejectsBadKinds(t *testing.T) {
	for _, kind := range []string{"", "live", "bogus"} {
		if _, err := (EngineSpec{Kind: kind}).tool(nil); err == nil {
			t.Fatalf("kind %q accepted", kind)
		}
	}
}

// A disarmed program never yields a bug nor a delay-free fault under any
// tool a job can name — the zero-FP contract holds for every kind.
func TestDisarmedProgramExposesNothing(t *testing.T) {
	p := genprog.Generate(genprog.SizeConfig(99, genprog.SizeSmall)).DisarmAll()
	for _, kind := range []string{KindWaffle, KindWaffleBasic, KindTSVD} {
		tool, err := EngineSpec{Kind: kind}.tool(nil)
		if err != nil {
			t.Fatal(err)
		}
		out := (&core.Session{Prog: p.Prog(), Tool: tool, MaxRuns: 10, BaseSeed: 3}).Expose()
		if out.Bug != nil || len(out.DelayFreeFaults) != 0 {
			t.Fatalf("%s: disarmed program exposed %v, delay-free faults %v", kind, out.Bug, out.DelayFreeFaults)
		}
	}
}

// parentJournal is a journal as the previous release wrote it: its job
// spec's core options still carry the since-removed AnalyzeWorkers field,
// and it stopped after committing program 0 of 3.
const parentJournal = `{"type":"job","job":"job-1","spec":{"corpus":{"seed":501,"programs":3,"size":"small"},"engine":{"kind":"waffle","core":{"Window":0,"Alpha":0,"Decay":0,"FixedDelay":0,"MinDelay":0,"InstrCost":0,"TraceCost":0,"MaxDetectionRuns":0,"TSO":false,"AnalyzeWorkers":0,"Metrics":null,"DisableParentChild":false,"DisablePrepRun":false,"DisableCustomLengths":false,"DisableInterferenceControl":false},"tsvd":{"Window":0,"FixedDelay":0,"Decay":0,"InstrCost":0}},"max_runs":15,"disarm_runs":4}}
{"type":"result","job":"job-1","result":{"index":0,"program":"gen-small-s501","seed":501,"size":"small","bugs":1,"outcomes":[{"bug":0,"kind":"use-after-free","runs":2,"delays":2}],"runs_used":6}}
`

// The results the previous release committed for programs 1 and 2 of
// that job.
var parentResults = []string{
	`{"index":1,"program":"gen-small-s502","seed":502,"size":"small","bugs":1,"outcomes":[{"bug":0,"kind":"use-before-init","runs":2,"delays":1}],"runs_used":6}`,
	`{"index":2,"program":"gen-small-s503","seed":503,"size":"small","bugs":1,"outcomes":[{"bug":0,"kind":"use-before-init","runs":2,"delays":1}],"runs_used":6}`,
}

// A journal written before the engine spec moved into this package loads
// (the journal decoder ignores the removed field) and resumes to the same
// results the previous release committed.
func TestParentJournalResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Journal: path, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	fin := waitState(t, m, "job-1", StateCompleted)
	if !fin.Resumed || fin.Cursor != 3 {
		t.Fatalf("resumed=%v cursor=%d, want a resumed job at cursor 3", fin.Resumed, fin.Cursor)
	}
	page, err := m.Results(context.Background(), "job-1", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != len(parentResults) {
		t.Fatalf("%d resumed results, want %d", len(page.Results), len(parentResults))
	}
	for k, pr := range page.Results {
		got, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != parentResults[k] {
			t.Fatalf("resumed result %d:\n got %s\nwant %s", k+1, got, parentResults[k])
		}
	}
}

// The HTTP API accepts every tool kind and rejects the live kind, unknown
// kinds, and unknown option fields with 400.
func TestHTTPEngineKinds(t *testing.T) {
	_, ts := api(t, Options{Workers: 1})
	submit := func(engine string) int {
		body := json.RawMessage(`{"corpus":{"seed":610,"programs":1,"size":"small"},"engine":` + engine + `,"max_runs":4,"disarm_runs":2}`)
		return doJSON(t, "POST", ts.URL+"/v1/jobs", body, nil)
	}
	for _, kind := range []string{KindWaffle, KindWaffleBasic, KindTSVD} {
		if code := submit(`{"kind":"` + kind + `"}`); code != http.StatusCreated {
			t.Fatalf("kind %s: status %d, want 201", kind, code)
		}
	}
	for _, engine := range []string{`{"kind":"live"}`, `{"kind":"bogus"}`, `{"kind":"waffle","core":{"AnalyzeWorkers":2}}`} {
		if code := submit(engine); code != http.StatusBadRequest {
			t.Fatalf("engine %s: status %d, want 400", engine, code)
		}
	}
}
