package workload

import (
	"strconv"
	"sync"
	"time"

	"waffle/internal/live"
)

// LiveBody materializes the spec as a live scenario body — the wall-clock
// mirror of Body, for driving the live runtime (and the example HTTP
// service's clean handlers) with the same controllable concurrency
// characteristics. The structure and site labels match Body exactly, with
// the substrate translated:
//
//   - sim.Thread.Work(d) becomes a real Sleep of d microseconds: one
//     simulator tick is one virtual microsecond (sim.Microsecond == 1),
//     so a Spacing of 500 ticks is 500µs of physical think time.
//   - The sim.WaitGroup joins become live Handle joins (worker fan-in)
//     and a plain sync.WaitGroup (the synced-disposal ordering): real
//     goroutines synchronize with real primitives.
//   - API traffic (APIObjs/APICalls) is omitted: the live heap models
//     lifecycle state only — it has no thread-unsafe API call surface —
//     and the fields exist to exercise the simulator's TSV oracle, which
//     has no live counterpart yet.
//
// Like Body, the result is carefully fault-free: every cross-thread use
// is guarded or ordered, so a LiveBody handler contributes
// instrumentation sites, near-miss candidates, and injection overhead,
// never a fault — the false-positive control population of the load test.
func (s Spec) LiveBody() func(*live.Thread, *live.Heap) {
	s = s.withDefaults()
	pause := func(t *live.Thread, d int) {
		t.Sleep(time.Duration(d) * time.Microsecond)
	}
	return func(root *live.Thread, h *live.Heap) {
		spacing := int(s.Spacing)

		preFork := make([]*live.Ref, s.PreForkObjs)
		for i := range preFork {
			preFork[i] = h.NewRef("prefork" + strconv.Itoa(i))
			preFork[i].Init(root, siteID(s.Prefix, "prefork", i, "init"))
		}
		shared := make([]*live.Ref, s.SharedObjs)
		for i := range shared {
			shared[i] = h.NewRef("shared" + strconv.Itoa(i))
		}
		synced := make([]*live.Ref, s.SyncedObjs)
		syncedWGs := make([]*sync.WaitGroup, s.SyncedObjs)
		for i := range synced {
			synced[i] = h.NewRef("synced" + strconv.Itoa(i))
			syncedWGs[i] = &sync.WaitGroup{}
			syncedWGs[i].Add(s.Threads - 1) // one Done per non-owner
		}

		handles := make([]*live.Handle, 0, s.Threads)
		for ti := 0; ti < s.Threads; ti++ {
			ti := ti
			handles = append(handles, root.Spawn("worker"+strconv.Itoa(ti), func(t *live.Thread) {
				// Plain uses of the fork-ordered population, right after
				// the fork so they near-miss the pre-fork inits — the
				// candidate class fork-clock pruning removes.
				for pi := range preFork {
					pause(t, spacing)
					preFork[pi].Use(t, siteID(s.Prefix, "prefork", pi, "use", ti))
				}

				// Private object churn: instrumentation-site volume with
				// no cross-thread pairs.
				locals := make([]*live.Ref, s.LocalObjs)
				for li := range locals {
					locals[li] = h.NewRef("w" + strconv.Itoa(ti) + "-local" + strconv.Itoa(li))
					locals[li].Init(t, siteID(s.Prefix, "w", ti, "local", li, "init"))
					for op := 0; op < s.LocalOps; op++ {
						pause(t, spacing)
						locals[li].Use(t, siteID(s.Prefix, "w", ti, "local", li, "use", op%s.SiteFanout))
					}
					pause(t, spacing)
					locals[li].Dispose(t, siteID(s.Prefix, "w", ti, "local", li, "disp"))
				}

				// Synchronized-disposal objects: genuinely ordered
				// use→dispose near misses.
				for oi := 0; oi < s.SyncedObjs; oi++ {
					owner := oi % s.Threads
					if ti == owner {
						pause(t, spacing)
						synced[oi].Init(t, siteID(s.Prefix, "synced", oi, "init"))
						syncedWGs[oi].Wait()
						pause(t, spacing)
						synced[oi].Dispose(t, siteID(s.Prefix, "synced", oi, "disp"))
					} else {
						pause(t, spacing)
						synced[oi].UseIfLive(t, siteID(s.Prefix, "synced", oi, "use", ti))
						syncedWGs[oi].Done()
					}
				}

				// Round-based shared-object lifecycles: the near-miss
				// (injection-site) material, guarded so no delay can fault
				// them.
				for oi := 0; oi < s.SharedObjs; oi++ {
					owner := oi % s.Threads
					if ti == owner {
						pause(t, spacing)
						shared[oi].Init(t, siteID(s.Prefix, "shared", oi, "init"))
						pause(t, spacing*max(1, s.SharedUses-1))
						shared[oi].Dispose(t, siteID(s.Prefix, "shared", oi, "disp"))
					} else {
						for u := 0; u < s.SharedUses; u++ {
							pause(t, spacing)
							shared[oi].UseIfLive(t, siteID(s.Prefix, "shared", oi, "use", ti, u%s.SiteFanout))
						}
					}
				}
			}))
		}
		for _, hnd := range handles {
			root.Join(hnd)
		}
		for i := range preFork {
			preFork[i].Dispose(root, siteID(s.Prefix, "prefork", i, "disp"))
		}
	}
}
