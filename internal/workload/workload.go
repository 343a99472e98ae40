// Package workload synthesizes multithreaded test bodies with controllable
// concurrency characteristics: instrumentation-site density, near-miss
// (injection-site) density, thread-unsafe API traffic, fork-ordered object
// populations, and base running time.
//
// The generated bodies stand in for the multithreaded unit tests of the
// paper's 11 benchmark applications. They are carefully fault-free: shared
// objects are only ever accessed through guarded uses (UseIfLive) or under
// orderings no delay can invert, so a generated test never manifests a
// MemOrder bug — it only contributes instrumentation sites, near-miss
// candidates, and delay-injection overhead, exactly like the overwhelmingly
// bug-free test inputs of the real evaluation (Tables 2, 5, 6).
package workload

import (
	"fmt"
	"strconv"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Spec describes one synthetic multithreaded test.
type Spec struct {
	// Prefix namespaces the test's static site labels (they play the role
	// of source locations, so they must be stable across runs).
	Prefix string

	// Threads is the number of worker threads.
	Threads int

	// LocalObjs is the number of thread-private objects per thread. Each
	// contributes an init site, use sites, and a dispose site that never
	// form cross-thread pairs — pure instrumentation-site volume.
	LocalObjs int

	// LocalOps is the number of uses of each private object.
	LocalOps int

	// SharedObjs is the number of objects initialized inside one worker
	// and used (guarded) by the others — the near-miss generators whose
	// sites become delay-injection candidates.
	SharedObjs int

	// SharedUses is the number of guarded uses of each shared object per
	// non-owner thread.
	SharedUses int

	// PreForkObjs is the number of objects initialized by the root thread
	// before the workers fork. Their init→use pairs are causally ordered
	// by the fork; Waffle prunes them, WaffleBasic does not (§4.1).
	PreForkObjs int

	// SyncedObjs is the number of shared objects whose disposal is
	// genuinely synchronized with the cross-thread uses (a per-object
	// WaitGroup): the use→dispose near misses are real but causally
	// ordered through the waits. Fork-only analysis cannot see the order
	// (false candidates, wasted delays); full happens-before analysis
	// prunes them — the material for internal/eval's full-HB experiment.
	SyncedObjs int

	// SiteFanout spreads each object's uses over this many distinct
	// static sites (≥1).
	SiteFanout int

	// Spacing is the think time between consecutive operations of one
	// thread; it is the dominant contributor to base running time.
	Spacing sim.Duration

	// APIObjs and APICalls add thread-unsafe API traffic: each thread
	// performs APICalls calls spread over the shared APIObjs. APISites
	// distinct static labels are used per thread. TSVD's domain.
	APIObjs  int
	APICalls int
	APISites int
	APIDur   sim.Duration

	// APIShared routes every thread's API calls through the same objects,
	// creating cross-thread near misses (TSV injection-site material).
	// When false each thread sticks to its own object and TSVD finds no
	// candidates — most tests in Table 2 have near-zero TSV injection
	// sites despite dozens of instrumented call sites.
	APIShared bool
}

// withDefaults fills the structural minimums.
func (s Spec) withDefaults() Spec {
	if s.Threads <= 0 {
		s.Threads = 2
	}
	if s.SiteFanout <= 0 {
		s.SiteFanout = 1
	}
	if s.Spacing <= 0 {
		s.Spacing = 500 * sim.Microsecond
	}
	if s.APIDur <= 0 {
		s.APIDur = 50 * sim.Microsecond
	}
	return s
}

// Body materializes the spec as a runnable scenario body.
//
// Layout: the root thread allocates all reference cells, initializes the
// pre-fork population, forks Threads workers, and joins them. Worker i owns
// LocalObjs private objects and the shared objects with index ≡ i mod
// Threads; it initializes its shared objects first (so other workers'
// guarded uses race against them within the near-miss window), then churns
// its private objects, peppers guarded uses of everyone's shared objects
// and plain uses of the pre-fork population, performs its API calls, and
// finally disposes what it owns.
func (s Spec) Body() func(*sim.Thread, *memmodel.Heap) {
	s = s.withDefaults()
	return func(root *sim.Thread, h *memmodel.Heap) {
		preFork := make([]*memmodel.Ref, s.PreForkObjs)
		for i := range preFork {
			preFork[i] = h.NewRef("prefork" + strconv.Itoa(i))
			preFork[i].Init(root, siteID(s.Prefix, "prefork", i, "init"))
		}
		shared := make([]*memmodel.Ref, s.SharedObjs)
		for i := range shared {
			shared[i] = h.NewRef("shared" + strconv.Itoa(i))
		}
		synced := make([]*memmodel.Ref, s.SyncedObjs)
		syncedWGs := make([]*sim.WaitGroup, s.SyncedObjs)
		for i := range synced {
			synced[i] = h.NewRef("synced" + strconv.Itoa(i))
			syncedWGs[i] = &sim.WaitGroup{}
			syncedWGs[i].Add(root, s.Threads-1) // one Done per non-owner
		}
		apiObjs := make([]*memmodel.Ref, s.APIObjs)
		for i := range apiObjs {
			apiObjs[i] = h.NewRef("api" + strconv.Itoa(i))
		}

		var wg sim.WaitGroup
		for ti := 0; ti < s.Threads; ti++ {
			ti := ti
			wg.Add(root, 1)
			root.Spawn("worker"+strconv.Itoa(ti), func(t *sim.Thread) {
				defer wg.Done(t)

				// Plain uses of the fork-ordered population, right after
				// the fork so they near-miss the pre-fork inits: the exact
				// candidate class §4.1's parent-child pruning removes.
				for pi := range preFork {
					t.Work(s.Spacing)
					preFork[pi].Use(t, siteID(s.Prefix, "prefork", pi, "use", ti))
				}

				// Private object churn: instrumentation-site volume with
				// no cross-thread pairs.
				locals := make([]*memmodel.Ref, s.LocalObjs)
				for li := range locals {
					locals[li] = h.NewRef("w" + strconv.Itoa(ti) + "-local" + strconv.Itoa(li))
					locals[li].Init(t, siteID(s.Prefix, "w", ti, "local", li, "init"))
					for op := 0; op < s.LocalOps; op++ {
						t.Work(s.Spacing)
						locals[li].Use(t, siteID(s.Prefix, "w", ti, "local", li, "use", op%s.SiteFanout))
					}
					t.Work(s.Spacing)
					locals[li].Dispose(t, siteID(s.Prefix, "w", ti, "local", li, "disp"))
				}

				// Thread-unsafe API traffic (threads are still roughly in
				// phase here, so shared-object configurations near-miss).
				for c := 0; s.APIObjs > 0 && c < s.APICalls; c++ {
					t.Work(s.Spacing)
					obj := apiObjs[ti%s.APIObjs]
					if s.APIShared {
						obj = apiObjs[c%s.APIObjs]
					}
					write := c%3 != 0
					obj.APICall(t, siteID(s.Prefix, "api", ti, c%max(1, s.APISites)), write, s.APIDur)
				}

				// Synchronized-disposal objects: the owner initializes, the
				// other threads use and Done a per-object WaitGroup, and the
				// owner Waits before disposing — near-miss use→dispose pairs
				// that are genuinely ordered.
				for oi := 0; oi < s.SyncedObjs; oi++ {
					owner := oi % s.Threads
					if ti == owner {
						t.Work(s.Spacing)
						synced[oi].Init(t, siteID(s.Prefix, "synced", oi, "init"))
						syncedWGs[oi].Wait(t)
						t.Work(s.Spacing)
						synced[oi].Dispose(t, siteID(s.Prefix, "synced", oi, "disp"))
					} else {
						t.Work(s.Spacing)
						synced[oi].UseIfLive(t, siteID(s.Prefix, "synced", oi, "use", ti))
						syncedWGs[oi].Done(t)
					}
				}

				// Round-based shared-object lifecycles: every thread walks
				// the objects in the same order, so each object's init,
				// cross-thread guarded uses, and dispose cluster within a
				// bounded window — the near-miss (injection-site) material.
				// Owners perform init+dispose (2 ops), non-owners perform
				// SharedUses guarded uses; with SharedUses ≈ 2 the threads
				// stay in lockstep across rounds.
				for oi := 0; oi < s.SharedObjs; oi++ {
					owner := oi % s.Threads
					if ti == owner {
						t.Work(s.Spacing)
						shared[oi].Init(t, siteID(s.Prefix, "shared", oi, "init"))
						t.Work(s.Spacing * sim.Duration(max(1, s.SharedUses-1)))
						shared[oi].Dispose(t, siteID(s.Prefix, "shared", oi, "disp"))
					} else {
						for u := 0; u < s.SharedUses; u++ {
							t.Work(s.Spacing)
							shared[oi].UseIfLive(t, siteID(s.Prefix, "shared", oi, "use", ti, u%s.SiteFanout))
						}
					}
				}
			})
		}
		wg.Wait(root)
		for i := range preFork {
			preFork[i].Dispose(root, siteID(s.Prefix, "prefork", i, "disp"))
		}
	}
}

// siteID joins prefix and parts with '/' into a static site label, e.g.
// siteID("app/t1", "w", 2, "init") is "app/t1/w/2/init". Parts are strings
// or ints. Bodies build a label on every access, so this appends with
// strconv instead of formatting with fmt and allocates once per label (for
// labels up to 128 bytes).
func siteID(prefix string, parts ...any) trace.SiteID {
	var buf [128]byte
	b := append(buf[:0], prefix...)
	for _, p := range parts {
		b = append(b, '/')
		switch v := p.(type) {
		case string:
			b = append(b, v...)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		default:
			panic(fmt.Sprintf("workload: site part %v of type %T", p, p))
		}
	}
	return trace.SiteID(b)
}
