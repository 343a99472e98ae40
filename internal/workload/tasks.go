package workload

import (
	"strconv"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
)

// TaskSpec describes a synthetic test whose concurrency comes from a task
// pool rather than dedicated threads — the .NET task-oriented style the
// paper's §4.1 note covers. Object lifecycles flow through async-local
// contexts: inits performed before a task is submitted are causally
// ordered with the task's accesses (and pruned by Waffle), while accesses
// from sibling tasks race.
type TaskSpec struct {
	// Prefix namespaces the static site labels.
	Prefix string
	// Workers is the pool size.
	Workers int
	// PreSubmitObjs are initialized by the root before any submission:
	// every task use is fork-ordered through the async-local context.
	PreSubmitObjs int
	// SharedObjs are initialized inside one task and guard-used by
	// sibling tasks — near-miss material across tasks.
	SharedObjs int
	// UsesPerObj is the number of guarded uses per shared object.
	UsesPerObj int
	// Spacing is the think time inside tasks.
	Spacing sim.Duration
}

func (s TaskSpec) withDefaults() TaskSpec {
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.UsesPerObj <= 0 {
		s.UsesPerObj = 1
	}
	if s.Spacing <= 0 {
		s.Spacing = 500 * sim.Microsecond
	}
	return s
}

// Body materializes the spec. Per shared object the root submits one init
// task, UsesPerObj guarded-use tasks, and — after waiting for all of them —
// one dispose task. The waits order dispose after the uses in real time
// (so the generated test is fault-free even under delays: uses are
// guarded, disposes follow completed uses), but fork clocks do not track
// waits, so the use→dispose near misses stay in the candidate set exactly
// like thread-based false candidates do.
func (s TaskSpec) Body() func(*sim.Thread, *memmodel.Heap) {
	s = s.withDefaults()
	return func(root *sim.Thread, h *memmodel.Heap) {
		pool := sim.NewTaskPool(root, s.Workers, s.Prefix)

		preSubmit := make([]*memmodel.Ref, s.PreSubmitObjs)
		for i := range preSubmit {
			preSubmit[i] = h.NewRef("pre" + strconv.Itoa(i))
			preSubmit[i].Init(root, siteID(s.Prefix, "pre", i, "init"))
		}

		for oi := 0; oi < s.SharedObjs; oi++ {
			obj := h.NewRef("obj" + strconv.Itoa(oi))
			oi := oi
			initTask := pool.Submit(root, "init", func(t *sim.Thread) {
				t.Work(s.Spacing)
				obj.Init(t, siteID(s.Prefix, "obj", oi, "init"))
			})
			var useTasks []*sim.TaskHandle
			for u := 0; u < s.UsesPerObj; u++ {
				u := u
				useTasks = append(useTasks, pool.Submit(root, "use", func(t *sim.Thread) {
					t.Work(s.Spacing)
					obj.UseIfLive(t, siteID(s.Prefix, "obj", oi, "use", u))
					for pi := range preSubmit {
						preSubmit[pi].Use(t, siteID(s.Prefix, "pre", pi, "use"))
					}
				}))
			}
			initTask.Wait(root)
			for _, ut := range useTasks {
				ut.Wait(root)
			}
			dispose := pool.Submit(root, "dispose", func(t *sim.Thread) {
				t.Work(s.Spacing)
				obj.Dispose(t, siteID(s.Prefix, "obj", oi, "disp"))
			})
			dispose.Wait(root)
		}

		for i := range preSubmit {
			preSubmit[i].Dispose(root, siteID(s.Prefix, "pre", i, "disp"))
		}
		pool.Shutdown(root)
		pool.Join(root)
	}
}
