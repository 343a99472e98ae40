//go:build !race

// Cross-commit goldens: per-test digests of the built-in suite and the
// committed results of four campaign-server jobs, recomputed and compared
// byte for byte against files under testdata/golden. The equivalence
// suites compare variants within one commit; these pin behaviour across
// commits, so a refactor that changes any schedule, plan, trace or report
// fails here and names the test or job that moved.
//
// Regenerate only when a change is meant to move behaviour, and say why in
// CHANGES.md:
//
//	go test -run TestGolden -update-golden .
//
// The suite half takes ~100 s under the race detector, so this file is
// built without -race; CI runs it in a separate non-race step.
package waffle_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/server"
	"waffle/internal/tsvd"
	"waffle/internal/wafflebasic"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the files under testdata/golden from the current code")

const goldenDir = "testdata/golden"

// Budgets of the suite digest: the bug-free tests run a preparation and
// one detection run, the planted bugs the paper's 50-run search.
const (
	goldenCleanRuns = 2
	goldenBugRuns   = 50
)

// checkGolden compares got with the named golden file, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the golden at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
	t.Fatalf("%s differs from the golden", path)
}

// hashSession runs one test through a fresh session of tool, at the
// golden budget for its kind, and writes to h what the session decided:
// each run's report (with every delay interval when intervals is set) and
// the bug report in its text and JSON forms.
func hashSession(t *testing.T, h io.Writer, test *apps.Test, seed int64, tool core.Tool, intervals bool) {
	t.Helper()
	budget := goldenCleanRuns
	if test.Bug != nil {
		budget = goldenBugRuns
	}
	out := (&core.Session{Prog: test.Prog, Tool: tool, MaxRuns: budget, BaseSeed: seed}).Expose()
	for _, r := range out.Runs {
		fmt.Fprintf(h, "run=%d seed=%d end=%d timeout=%v delays=%d total=%d skipped=%d outcome=%s\n",
			r.Run, r.Seed, int64(r.End), r.TimedOut, r.Stats.Count, int64(r.Stats.Total), r.Stats.Skipped, r.Outcome)
		if intervals {
			for _, iv := range r.Stats.Intervals {
				fmt.Fprintf(h, "delay %s %d %d\n", iv.Site, int64(iv.Start), int64(iv.End))
			}
		}
	}
	if out.Bug != nil {
		// String omits the fault's op label and thread stacks; the JSON
		// carries them.
		fmt.Fprintf(h, "bug %s\n", out.Bug)
		if err := out.Bug.WriteJSON(h); err != nil {
			t.Fatalf("%s: encode bug report: %v", test.Name, err)
		}
	} else {
		fmt.Fprintf(h, "bug none\n")
	}
}

// suiteDigest runs one test through a fresh Waffle session and hashes
// everything the session decided: each run's report, the bug report (its
// text and JSON forms), the final plan and the preparation trace.
func suiteDigest(t *testing.T, test *apps.Test, seed int64) string {
	t.Helper()
	wf := core.NewWaffle(core.Options{})
	h := sha256.New()
	hashSession(t, h, test, seed, wf, false)
	if plan := wf.Plan(); plan != nil {
		if err := plan.WriteJSON(h); err != nil {
			t.Fatalf("%s: encode plan: %v", test.Name, err)
		}
	}
	if tr := wf.PrepTrace(); tr != nil {
		if err := tr.WriteBinary(h); err != nil {
			t.Fatalf("%s: encode trace: %v", test.Name, err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGoldenSuiteDigests(t *testing.T) {
	var b strings.Builder
	i := 0
	for _, app := range apps.Registry() {
		for _, test := range app.Tests {
			fmt.Fprintf(&b, "%s %s\n", test.Name, suiteDigest(t, test, int64(i)*7_919+1))
			i++
		}
	}
	if i != 935 {
		t.Fatalf("registry holds %d tests, the golden covers 935", i)
	}
	checkGolden(t, "suite.txt", []byte(b.String()))
}

// onlineDigests runs one test through a TSVD, a WaffleBasic and a no-prep
// Waffle session and hashes, per session, everything it decided: each
// run's report and delay intervals, the bug report, the final candidate
// pairs, the live and injection site counts, and TSVD's instrumentation
// site count.
func onlineDigests(t *testing.T, test *apps.Test, seed int64) string {
	t.Helper()
	hashPairs := func(h io.Writer, pairs []core.Pair) {
		for _, p := range pairs {
			fmt.Fprintf(h, "pair %s %s %d %d %d\n", p.Delay, p.Target, p.Kind, int64(p.Gap), p.Count)
		}
	}
	tv := tsvd.New(tsvd.Options{})
	ht := sha256.New()
	hashSession(t, ht, test, seed, tv, true)
	fmt.Fprintf(ht, "pairs %v\nlive=%d injection=%d instrumentation=%d\n", tv.Pairs(), tv.LiveSites(), tv.InjectionSiteCount(), tv.InstrumentationSiteCount())

	wb := wafflebasic.New(core.Options{})
	hb := sha256.New()
	hashSession(t, hb, test, seed, wb, true)
	hashPairs(hb, wb.Pairs())
	fmt.Fprintf(hb, "live=%d injection=%d\n", wb.LiveSites(), wb.InjectionSiteCount())

	np := core.NewWaffle(core.Options{DisablePrepRun: true})
	hn := sha256.New()
	hashSession(t, hn, test, seed, np, true)
	hashPairs(hn, np.Online().Pairs())
	fmt.Fprintf(hn, "live=%d injection=%d\n", np.LiveSites(), np.Online().InjectionSiteCount())
	return fmt.Sprintf("%x %x %x", ht.Sum(nil), hb.Sum(nil), hn.Sum(nil))
}

// TestGoldenOnlineSuiteDigests pins the same-run engines on every suite
// test at suiteDigest's seeds and budgets: one digest each of a TSVD, a
// WaffleBasic and a no-prep session.
func TestGoldenOnlineSuiteDigests(t *testing.T) {
	var b strings.Builder
	i := 0
	for _, app := range apps.Registry() {
		for _, test := range app.Tests {
			fmt.Fprintf(&b, "%s %s\n", test.Name, onlineDigests(t, test, int64(i)*7_919+1))
			i++
		}
	}
	checkGolden(t, "suite-online.txt", []byte(b.String()))
}

// goldenJobs are the campaign jobs whose results are pinned, as JSON job
// specs exactly as a client submits them over HTTP.
var goldenJobs = []struct{ name, spec string }{
	{"server-waffle-sc.json", `{"corpus":{"seed":7100,"programs":25,"size":"mixed"},"engine":{"kind":"waffle"}}`},
	{"server-waffle-tso.json", `{"corpus":{"seed":7200,"programs":25,"size":"mixed","tso":true},"engine":{"kind":"waffle"}}`},
	{"server-wafflebasic-sc.json", `{"corpus":{"seed":7300,"programs":10,"size":"mixed"},"engine":{"kind":"wafflebasic"}}`},
	{"server-tsvd-sc.json", `{"corpus":{"seed":7400,"programs":10,"size":"mixed"},"engine":{"kind":"tsvd"}}`},
}

func TestGoldenServerResults(t *testing.T) {
	m, err := server.New(server.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	for _, job := range goldenJobs {
		var spec server.JobSpec
		dec := json.NewDecoder(strings.NewReader(job.spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("%s: decode spec: %v", job.name, err)
		}
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", job.name, err)
		}
		var results []*server.ProgramResult
		for {
			page, err := m.Results(context.Background(), st.ID, len(results), 30*time.Second)
			if err != nil {
				t.Fatalf("%s: results: %v", job.name, err)
			}
			results = append(results, page.Results...)
			if page.Done {
				if page.State != server.StateCompleted {
					t.Fatalf("%s: job ended %s", job.name, page.State)
				}
				break
			}
		}
		got, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, job.name, append(got, '\n'))
	}
}
