package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"waffle/internal/apps"
)

func TestTailOK(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 99, false},
		{100, 99, false},
		{999, 99, false}, // rank 990 leaves 9 beyond
		{1000, 99, true}, // rank 990 leaves 10 beyond
		{1834, 99, true},
		{20, 50, true},
		{19, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "p99 ms", "latency/ms", ".hidden", "x%", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the program's metric list and the
// benchmark description at the repository root in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range desc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	toSpecs := func(xs []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, x := range xs {
			out = append(out, metricSpec{x.Name, x.Unit})
		}
		return out
	}
	if got := toSpecs(desc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the program's\n%v", got, endToEnd)
	}
	if got := toSpecs(desc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the program's\n%v", got, perLayer)
	}
}

func TestSeedPlumbing(t *testing.T) {
	if suiteSeed(1, 5) != suiteSeed(1, 5) || suiteSeed(1, 5) == suiteSeed(2, 5) || suiteSeed(1, 5) == suiteSeed(1, 6) {
		t.Error("suiteSeed is not a function of (seed, test) that separates both")
	}
	if corpusSeed(1, 0, false) == corpusSeed(2, 0, false) || corpusSeed(1, 0, false) == corpusSeed(1, 0, true) ||
		corpusSeed(1, 0, false) == corpusSeed(1, 1, false) {
		t.Error("corpusSeed collides across seed, round or memory model")
	}
	if jobSpec(3, 1, true).Corpus.Seed != corpusSeed(3, 1, true) || !jobSpec(3, 1, true).Corpus.TSO {
		t.Error("jobSpec does not carry the corpus seed and model")
	}
	if !reflect.DeepEqual(livePlan(9), livePlan(9)) {
		t.Error("livePlan differs for one seed")
	}
	if reflect.DeepEqual(livePlan(9), livePlan(10)) {
		t.Error("livePlan ignores the seed")
	}
	counts := make([]int, len(livePaths))
	for _, p := range livePlan(9) {
		counts[p]++
	}
	sum := 0
	for _, w := range liveWeights {
		sum += w
	}
	for p, n := range counts {
		if want := float64(liveWeights[p]*livePlanLen) / float64(sum); float64(n) < 0.9*want || float64(n) > 1.1*want {
			t.Errorf("path %s drawn %d of %d times, want about %.0f", livePaths[p], n, livePlanLen, want)
		}
	}
}

func TestReportWrite(t *testing.T) {
	r := &report{}
	r.set("setup_s", "s", 0.5)
	r.set("latency_ms", "ms", 2)
	r.op("")
	r.op("boom")
	var buf bytes.Buffer
	ok := r.write(&buf, []metricSpec{{"setup_s", "s"}, {"latency_ms", "s"}, {"absent", "count"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", keys)
	}
	if ok || string(got["correct"]) != "false" || string(got["attempted"]) != "2" || string(got["failed"]) != "1" {
		t.Errorf("result %s: want correct=false attempted=2 failed=1", lines[len(lines)-1])
	}
	for _, want := range []string{"metric latency_ms", "FAIL boom", "FAIL metric absent was not measured", "unit ms, want s"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestTracedSessionsMatchUntraced is the benchmark's own share of the
// observation-never-perturbs contract: sessions behind the traced
// wrappers and registry reach the same outcome as bare sessions.
func TestTracedSessionsMatchUntraced(t *testing.T) {
	var tests []*apps.Test
	for _, a := range apps.Registry() {
		tests = append(tests, a.Tests[0], a.Tests[len(a.Tests)-1])
	}
	layers := newSimLayers()
	var want, got engineTotals
	for i, tc := range tests {
		budget := cleanMaxRuns
		if tc.Bug != nil {
			budget = bugMaxRuns
		}
		plain, _, _ := suiteSession(tc, budget, suiteSeed(3, i), nil, &want)
		traced, _, _ := suiteSession(tc, budget, suiteSeed(3, i), layers, &got)
		if plain.RunsToExpose() != traced.RunsToExpose() || plain.BaseTime != traced.BaseTime || len(plain.Runs) != len(traced.Runs) {
			t.Fatalf("%s: traced session diverged", tc.Name)
		}
		for k := range plain.Runs {
			if p, q := plain.Runs[k], traced.Runs[k]; p.End != q.End || p.Stats.Count != q.Stats.Count {
				t.Fatalf("%s run %d: end %d/%d delays %d/%d", tc.Name, k+1, p.End, q.End, p.Stats.Count, q.Stats.Count)
			}
		}
	}
	if layers.accesses.Load() == 0 || layers.events == 0 || want.delays == 0 {
		t.Error("traced wrappers saw no accesses, events or delays")
	}
	if got != want {
		t.Errorf("engine totals traced %+v, untraced %+v", got, want)
	}
	r := &report{}
	layers.checkCounters(r, want)
	if len(r.failures) > 0 {
		t.Error(r.failures)
	}
}
