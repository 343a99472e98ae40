package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"

	"waffle/internal/stats"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// over fewer than ten tail samples is one outlier, not a percentile.
const minTail = 10

// metricName is the charset every reported name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects one run's metrics, operation counts and named failures.
// Workload code may record failures from several goroutines.
type report struct {
	mu        sync.Mutex
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

// set records a metric, replacing an earlier value under the same name.
func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, unit, v}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// op counts one attempted operation; a non-empty reason marks it failed.
func (r *report) op(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if reason != "" {
		r.failed++
		r.failures = append(r.failures, reason)
	}
}

// breach records a correctness failure that is not one operation's (a
// determinism mismatch, a missing planted bug, a watchdog expiry).
func (r *report) breach(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// write prints every metric by name and unit, every failure, and, as the
// last line, the JSON result restricted to the names in keep. A metric in
// keep that the run did not produce, a malformed name, or a non-finite
// value is itself a failure, so the JSON line is always printed and
// always says whether the numbers can be trusted.
func (r *report) write(w io.Writer, keep []metricSpec) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	out := make(map[string]jsonMetric, len(keep))
	for _, spec := range keep {
		m, ok := byName[spec.name]
		switch {
		case !ok:
			r.failures = append(r.failures, "metric "+spec.name+" was not measured")
		case !metricName.MatchString(m.name):
			r.failures = append(r.failures, fmt.Sprintf("metric name %q outside [A-Za-z0-9_.-]", m.name))
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			r.failures = append(r.failures, fmt.Sprintf("metric %s is %v", m.name, m.value))
		case m.unit != spec.unit:
			r.failures = append(r.failures, fmt.Sprintf("metric %s has unit %s, want %s", m.name, m.unit, spec.unit))
		default:
			out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}

	names := make([]string, 0, len(r.metrics))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := byName[n]
		fmt.Fprintf(w, "metric %-36s %18.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", strings.ReplaceAll(f, "\n", " "))
	}

	correct := len(r.failures) == 0
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1 // the result format counts at least one; a run that did nothing has failed anyway
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, r.failed, out})
	if err != nil {
		// Every value was checked finite above; Marshal cannot fail here.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
	return correct
}

// tailOK reports whether n samples leave at least minTail beyond the
// p-th percentile's nearest rank, the rank stats.Percentile reads.
func tailOK(n int, p float64) bool {
	return n-int(math.Ceil(p/100*float64(n))) >= minTail
}

// samples is a growable list of durations in one unit.
type samples []float64

// quantiles returns the nearest-rank p50 and p99 of s. The end-to-end
// measurements run until their p99 has its tail (tailOK); the traced
// run's per-layer p99s are over what that pass saw.
func (s samples) quantiles() (p50, p99 float64) {
	return stats.Percentile(s, 50), stats.Percentile(s, 99)
}
