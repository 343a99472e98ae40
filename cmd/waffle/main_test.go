package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run this binary as the waffle command: with
// WAFFLE_RUN_MAIN set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("WAFFLE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSuiteRejectsPerTestFlags(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-suite", "NSubstitute", "-report", filepath.Join(dir, "s.json"),
		"-plan", filepath.Join(dir, "p.json"), "-trace", filepath.Join(dir, "t.bin"), "-replay")
	cmd.Env = append(os.Environ(), "WAFFLE_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	want := "waffle: flag(s) not valid with -suite:\n" +
		"  -plan: " + perTestFlags["plan"] + "\n" +
		"  -replay: " + perTestFlags["replay"] + "\n" +
		"  -report: " + perTestFlags["report"] + "\n" +
		"  -trace: " + perTestFlags["trace"] + "\n"
	if cmd.ProcessState.ExitCode() != 2 || stderr.String() != want || stdout.Len() != 0 {
		t.Fatalf("exit %v\nstderr:\n%s\nstdout:\n%s\nwant exit 2, one stderr line per flag, nothing run", err, stderr.String(), stdout.String())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("wrote %v", files)
	}
}
