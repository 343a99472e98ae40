package eval

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// Cancelling the sweep mid-corpus commits only the prefix scheduled
// before the cancel, flags the report, and records no cancellation noise
// as oracle violations.
func TestRunDifferentialCtxCancelMidCorpus(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Let a little real work start, then pull the plug. The sweep
		// discards the wave in flight, so any nonzero delay exercises the
		// mid-corpus path without making the test timing-sensitive.
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rep := RunDifferentialCtx(ctx, DiffOptions{Seed: 1000, Programs: 200, Workers: 2})
	if !rep.Cancelled {
		t.Fatal("report not flagged Cancelled")
	}
	if len(rep.Results) >= 200 {
		t.Fatalf("cancelled sweep still committed all %d programs", len(rep.Results))
	}
	for _, v := range rep.Violations {
		t.Errorf("cancelled sweep recorded violation: %s", v)
	}
	// The committed prefix is contiguous from index 0 (in-order commits).
	for k, pd := range rep.Results {
		want := rep.Seed + int64(k)
		if pd.Seed != want {
			t.Fatalf("result %d has seed %d, want %d — committed prefix not contiguous", k, pd.Seed, want)
		}
	}
}

// A Background context reproduces the context-free sweep bit-for-bit.
func TestRunDifferentialCtxBackgroundMatches(t *testing.T) {
	a := RunDifferential(DiffOptions{Seed: 77, Programs: 2})
	b := RunDifferentialCtx(context.Background(), DiffOptions{Seed: 77, Programs: 2})
	if a.Cancelled || b.Cancelled {
		t.Fatal("uncancelled sweeps flagged Cancelled")
	}
	aj, bj := mustJSON(t, a), mustJSON(t, b)
	if string(aj) != string(bj) {
		t.Fatal("RunDifferentialCtx(Background) diverged from RunDifferential")
	}
}
