package live

import (
	"sync/atomic"
	"testing"
	"time"

	"waffle/internal/obs"
)

// TestAbandonedRunSealsShards is the regression test for leaked-goroutine
// shard writes: a timed-out recording run leaks goroutines Go cannot
// kill, and before the fix they kept Appending to trace shards the
// detector had walked away from, growing buffers nobody would ever merge
// and racing any later reader of that state. Abandonment must seal every shard: post-seal appends are
// dropped and counted by the live.abandoned_events counter. The scenario
// deliberately leaks a writer that hammers an instrumented site past the
// run budget; run under -race, the leaked writer and the abandoning
// detector share only the seal atomics.
func TestAbandonedRunSealsShards(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	body := func(root *Thread, h *Heap) {
		n := calls.Add(1) // 1 = baseline, 2 = preparation
		conn := h.NewRef("conn")
		conn.Init(root, "leak.Open")
		w := root.Spawn("writer", func(w *Thread) {
			if n < 2 {
				return // baseline completes cleanly
			}
			// Preparation run: outlive the run budget and keep recording,
			// so the leaked goroutine is still appending to its shard
			// when the detector abandons the run.
			for {
				select {
				case <-release:
					return
				default:
					conn.UseIfLive(w, "leak.writer.Poll")
					time.Sleep(50 * time.Microsecond)
				}
			}
		})
		root.Sleep(time.Millisecond)
		conn.UseIfLive(root, "leak.Check")
		root.Join(w)
	}

	m := obs.New()
	d := NewDetector(Options{RunTimeout: 20 * time.Millisecond, Metrics: m})
	out := d.Expose(Scenario{Name: "leak", Body: body}, 1, 1)

	if out.Bug != nil {
		t.Fatalf("guarded scenario exposed a bug: %v", out.Bug)
	}
	if len(out.Runs) != 1 || !out.Runs[0].TimedOut {
		t.Fatalf("runs = %+v, want one timed-out preparation run", out.Runs)
	}
	if d.Plan() != nil {
		t.Fatal("abandoned preparation run produced a plan")
	}

	// The leaked writer is still running; its appends must now be hitting
	// the sealed shard and landing in the abandonment counter.
	ctr := m.Counter("live.abandoned_events")
	deadline := time.Now().Add(5 * time.Second)
	for ctr.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ctr.Value(); got == 0 {
		t.Fatal("live.abandoned_events stayed 0: leaked writer's post-abandonment appends were not dropped/counted")
	}
}
