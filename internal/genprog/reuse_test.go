package genprog

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// runView is what a SimProgram run shows its caller: the end time, the
// error text, the fault with its stacks, and the TSV count.
type runView struct {
	End      sim.Time
	Err      string
	Fault    sim.Fault
	TimedOut bool
	TSVs     int
}

func viewOf(res core.ExecResult) runView {
	v := runView{End: res.End, TimedOut: res.TimedOut, TSVs: res.TSVs}
	if res.Err != nil {
		v.Err = res.Err.Error()
	}
	if res.Fault != nil {
		v.Fault = *res.Fault
		v.Fault.Err = nil // compared through Err's text
	}
	return v
}

// delayAll sleeps before every initialization and holds back every
// disposal's store, so armed bugs fault and TSO runs leave stores
// buffered.
var delayAll = memmodel.HookFunc(func(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	switch kind {
	case trace.KindInit:
		t.Sleep(20 * sim.Millisecond)
	case trace.KindDispose:
		memmodel.AddFlushDelay(t, 20*sim.Millisecond)
	}
})

// TestSimProgramReuseInvisibleUnderConcurrency runs a 25-program mixed
// corpus, SC and TSO, armed and disarmed, with and without delays, first
// on one goroutine and then on two at once, as the campaign's two workers
// do. Each run releases its world and heap, so concurrent runs take over
// memory that runs on the other goroutine left. Every run must show what
// its sequential run showed.
func TestSimProgramReuseInvisibleUnderConcurrency(t *testing.T) {
	type job struct {
		prog *core.SimProgram
		seed int64
		hook memmodel.Hook
	}
	var jobs []job
	for i := 0; i < 25; i++ {
		for _, cfg := range []Config{SizeConfig(1000+int64(i), Size(i%3)), TSOSizeConfig(1000+int64(i), Size(i%3))} {
			p := Generate(cfg)
			for _, v := range []*Program{p.DisarmAll(), p.ArmAll()} {
				prog := v.Prog()
				for seed := int64(1); seed <= 2; seed++ {
					jobs = append(jobs, job{prog, seed, nil}, job{prog, seed, delayAll})
				}
			}
		}
	}
	want := make([]runView, len(jobs))
	faults := 0
	for i, j := range jobs {
		want[i] = viewOf(j.prog.Execute(j.seed, j.hook))
		if want[i].Fault.Stacks != nil {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no run faulted: the corpus exercises no fault stacks")
	}
	got := make([]runView, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				got[i] = viewOf(jobs[i].prog.Execute(jobs[i].seed, jobs[i].hook))
			}
		}()
	}
	wg.Wait()
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s seed %d: on two goroutines the run shows\n%+v\nalone\n%+v", jobs[i].prog.Label, jobs[i].seed, got[i], want[i])
		}
	}
	t.Logf("%d runs, %d of them faulting, agree", len(jobs), faults)
}
