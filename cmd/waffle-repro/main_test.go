package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waffle/internal/core"
)

// writeReport exposes SSH.Net/Bug-1 at seed 1, as `waffle -test
// SSH.Net/Bug-1 -report` does, and writes the report JSON to a file after
// applying edit to it.
func writeReport(t *testing.T, edit func(string) string) string {
	t.Helper()
	test := findTest("SSH.Net/Bug-1")
	if test == nil {
		t.Fatal("SSH.Net/Bug-1 missing from the registry")
	}
	out := (&core.Session{Prog: test.Prog, Tool: core.NewWaffle(core.Options{}), MaxRuns: 50, BaseSeed: 1}).Expose()
	if out.Bug == nil {
		t.Fatal("SSH.Net/Bug-1 not exposed at seed 1")
	}
	var buf bytes.Buffer
	if err := out.Bug.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bug.json")
	if err := os.WriteFile(path, []byte(edit(buf.String())), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayReproducesReport replays an unedited report: the fault fires
// again and the command exits 0.
func TestReplayReproducesReport(t *testing.T) {
	path := writeReport(t, func(s string) string { return s })
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-report", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{
		"report:  SSH.Net/Bug-1 (use-after-free at ssh/channel/use, run 2, seed 2)",
		"replay:  reproduced",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestStaleReadReportPrintsFaultSite feeds a report whose kind says
// stale-read, so the decoder fills Stale and leaves NullRef nil. The
// header must name the fault site from the stale read instead of
// dereferencing NullRef. The SC program cannot produce a stale read, so
// the replay does not reproduce and the command exits 3.
func TestStaleReadReportPrintsFaultSite(t *testing.T) {
	path := writeReport(t, func(s string) string {
		const from = `"kind": "use-after-free"`
		if !strings.Contains(s, from) {
			t.Fatalf("report has no %s:\n%s", from, s)
		}
		return strings.Replace(s, from, `"kind": "stale-read"`, 1)
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-report", path}, &stdout, &stderr); code != 3 {
		t.Fatalf("exit %d, want 3\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if want := "report:  SSH.Net/Bug-1 (stale-read at ssh/channel/use, run 2, seed 2)"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, stdout.String())
	}
}

// TestUsageErrors checks the exit codes without a replay: 2 without
// -report, 1 for a report that does not exist.
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-report") {
		t.Fatalf("no args: exit %d, stderr %q; want 2 and the usage", code, stderr.String())
	}
	stderr.Reset()
	missing := filepath.Join(t.TempDir(), "missing.json")
	if code := run([]string{"-report", missing}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "missing.json") {
		t.Fatalf("missing report: exit %d, stderr %q; want 1 naming the file", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("usage errors wrote to stdout: %q", stdout.String())
	}
}
