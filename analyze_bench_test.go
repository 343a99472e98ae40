// Benchmarks for the trace analyzer, over the suite's largest preparation
// trace, and for the recorder's hot path, plus the analyzer's allocation
// gate. Run with
//
//	go test -bench 'Analyze|Recorder' -benchmem -benchtime 1x .
//	go test -run TestAnalyzeAllocs -v .
package waffle_test

import (
	"sync"
	"testing"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// prepTraceOf performs one preparation run of a test and returns its trace.
func prepTraceOf(tb testing.TB, test *apps.Test, seed int64) *trace.Trace {
	tb.Helper()
	wf := core.NewWaffle(core.Options{})
	wf.SetLabel(test.Name)
	hook := wf.HookForRun(1, nil)
	res := test.Prog.Execute(seed, hook)
	if res.Err != nil {
		tb.Fatalf("%s: preparation run: %v", test.Name, res.Err)
	}
	wf.FinishPreparation(&core.RunReport{Run: 1, End: res.End})
	tr := wf.PrepTrace()
	if tr == nil {
		tb.Fatalf("%s: no preparation trace", test.Name)
	}
	return tr
}

// bigTrace caches the largest preparation trace in the benchmark suite
// (currently NpgSQL/test-018, ~1.3k events); the scan over every test runs
// once per `go test` process.
var bigTrace struct {
	once sync.Once
	tr   *trace.Trace
	name string
}

func largestPrepTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	bigTrace.once.Do(func() {
		for _, app := range apps.Registry() {
			for _, test := range app.Tests {
				tr := prepTraceOf(tb, test, 11)
				if bigTrace.tr == nil || len(tr.Events) > len(bigTrace.tr.Events) {
					bigTrace.tr, bigTrace.name = tr, test.Name
				}
			}
		}
	})
	if bigTrace.tr == nil {
		tb.Fatal("no preparation trace found")
	}
	return bigTrace.tr
}

// reportEventRate publishes analyzer/recorder throughput: events consumed
// per wall-clock second across all iterations.
func reportEventRate(b *testing.B, eventsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eventsPerOp)*float64(b.N)/s, "events/sec")
	}
}

func BenchmarkAnalyzeSequential(b *testing.B) {
	tr := largestPrepTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(tr, core.Options{})
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
	reportEventRate(b, len(tr.Events))
}

// analyzeAllocBound caps core.Analyze's allocations on NpgSQL/test-018's
// preparation trace at seed 11 (1,261 events). The count is deterministic
// for a fixed trace; the bound leaves room for Go releases whose map
// implementations allocate differently.
const analyzeAllocBound = 1000

func TestAnalyzeAllocs(t *testing.T) {
	var test *apps.Test
	for _, app := range apps.Registry() {
		for _, tc := range app.Tests {
			if tc.Name == "NpgSQL/test-018" {
				test = tc
			}
		}
	}
	if test == nil {
		t.Fatal("NpgSQL/test-018 not in the registry")
	}
	tr := prepTraceOf(t, test, 11)
	allocs := testing.AllocsPerRun(20, func() { core.Analyze(tr, core.Options{}) })
	t.Logf("core.Analyze on %s (%d events): %.0f allocs", test.Name, len(tr.Events), allocs)
	if allocs > analyzeAllocBound {
		t.Fatalf("core.Analyze allocates %.0f times per call, want at most %d", allocs, analyzeAllocBound)
	}
}

// BenchmarkRecorderRecord measures the recording hot path: RecordEvent
// into the recorder's single chunked shard. allocs/op must report 0 — past
// the first chunk's growth from 64 to 1024 events only one chunk
// allocation per 1024 appends, which rounds away — and events/sec is the
// recorder throughput number published to BENCH_analyze.json. The
// recorder is swapped out every 2^20 events (off the timer) to bound the
// benchmark's memory footprint at large b.N.
func BenchmarkRecorderRecord(b *testing.B) {
	clk := vclock.New(1)
	rec := trace.NewRecorder("bench", 1)
	ev := trace.Event{TID: 1, Site: "bench.go:1", Obj: 1, Kind: trace.KindUse, Clock: clk}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(1<<20) == 0 {
			b.StopTimer()
			rec = trace.NewRecorder("bench", 1)
			b.StartTimer()
		}
		ev.T = sim.Time(i)
		rec.RecordEvent(ev)
	}
	reportEventRate(b, 1)
}
