//go:build !race

// Under -race sync.Pool drops Puts at random, so this gate is built
// without it; CI runs it in its no-race allocation step.
package core_test

import "testing"

// runAllocBounds cap the allocations of one run of each of smallPrograms.
// A warm run allocated 27 (sc) and 21 (tso) times with Go 1.24. The slack
// covers a collection that empties the pools mid-measure.
var runAllocBounds = map[string]float64{"sc": 36, "tso": 30}

// TestSimProgramRunAllocs bounds what one whole simulated run allocates
// once a run has warmed the pools: the world, the heap, their threads and
// reference cells, and the generators come back from the previous run.
// What is left is the world and heap structs, the fork clocks, and the
// program's own slices and closures.
func TestSimProgramRunAllocs(t *testing.T) {
	for name, p := range smallPrograms() {
		p.Execute(1, nil)
		var seed int64
		avg := testing.AllocsPerRun(200, func() {
			seed++
			if res := p.Execute(seed, nil); res.Err != nil {
				t.Fatalf("%s run %d: %v", name, seed, res.Err)
			}
		})
		t.Logf("%s: %.0f allocs per run", name, avg)
		if avg > runAllocBounds[name] {
			t.Errorf("%s: a run allocates %.0f times, want ≤ %.0f", name, avg, runAllocBounds[name])
		}
	}
}
