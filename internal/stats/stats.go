// Package stats provides the measurement helpers the evaluation harness
// uses: the delay-overlap ratio of §3.3, order statistics over repeated
// probabilistic experiments (the paper repeats every experiment 15 times,
// §6.1), and slowdown aggregation.
//
// All order statistics in this package use the nearest-rank convention:
// the p-th percentile of n sorted samples is the element at rank
// ⌈p/100·n⌉, and the median is the lower-middle element s[(n−1)/2] —
// exactly Percentile(xs, 50). Nothing interpolates: on the tiny,
// integer-valued samples the harness aggregates (runs-to-exposure over a
// handful of sessions), interpolation would invent run counts no session
// ever observed, and it would put MedianInt, MedianFloat, and
// Percentile(·, 50) in disagreement on identical data. The same
// convention is mirrored by obs.HistView.Quantile so controller-side
// and report-side percentiles agree.
package stats

import (
	"math"
	"sort"

	"waffle/internal/core"
	"waffle/internal/sim"
)

// Repetitions is the paper's repetition count for probabilistic
// experiments (§6.1).
const Repetitions = 15

// OverlapRatio computes §3.3's delay-overlap metric: the complement of the
// ratio between the "time projection" (union length) of all delays and the
// total delay duration injected. 0 = no overlap; → (D−1)/D when all D
// delays coincide.
func OverlapRatio(ivs []core.Interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	var total sim.Duration
	spans := make([]core.Interval, len(ivs))
	copy(spans, ivs)
	for _, iv := range spans {
		total += iv.Dur()
	}
	if total <= 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var union sim.Duration
	curStart, curEnd := spans[0].Start, spans[0].End
	for _, iv := range spans[1:] {
		if iv.Start > curEnd {
			union += curEnd.Sub(curStart)
			curStart, curEnd = iv.Start, iv.End
			continue
		}
		if iv.End > curEnd {
			curEnd = iv.End
		}
	}
	union += curEnd.Sub(curStart)
	return 1 - float64(union)/float64(total)
}

// MedianInt returns the nearest-rank median of xs (lower middle for even
// lengths); 0 for an empty slice.
func MedianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := make([]int, len(xs))
	copy(s, xs)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

// MedianFloat returns the nearest-rank median of xs (lower middle for
// even lengths, matching MedianInt and Percentile(xs, 50)); 0 for an
// empty slice.
func MedianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// Percentile returns the p-th percentile of xs (0 ≤ p ≤ 100) by the
// nearest-rank method: the smallest element with at least ⌈p/100·n⌉
// elements ≤ it. It is exact on the tiny samples the runs-to-exposure
// report aggregates (no interpolation invents unobserved run counts).
// Empty input yields 0; p ≤ 0 yields the minimum, p ≥ 100 the maximum.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// MeanCI95 returns the sample mean of xs and the half-width of its
// normal-approximation 95% confidence interval (1.96·s/√n). Samples of
// fewer than two points have no dispersion estimate: the half-width is 0
// and the mean is 0 (n=0) or the single value (n=1).
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, 1.96 * sd / math.Sqrt(float64(n))
}

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Majority reports the value occurring in at least ceil(n/2)+... — the
// paper's criterion "at least 10 of 15 attempts" generalized: it returns
// the most frequent value and whether it reaches threshold occurrences.
func Majority(xs []int, threshold int) (value int, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	counts := make(map[int]int)
	best, bestN := xs[0], 0
	for _, x := range xs {
		counts[x]++
		if counts[x] > bestN || (counts[x] == bestN && x < best) {
			best, bestN = x, counts[x]
		}
	}
	return best, bestN >= threshold
}

// ExposeResult summarizes one repetition of a bug-exposure experiment.
type ExposeResult struct {
	Runs     int     // runs to expose (0 = missed)
	Slowdown float64 // total time over base time
}

// RepeatExpose performs n independent exposure sessions (distinct base
// seeds) of tool-builder tb against program-builder pb and collects
// per-repetition results. Builders return fresh instances so no state
// leaks between repetitions.
func RepeatExpose(n int, maxRuns int, seed0 int64, pb func() core.Program, tb func() core.Tool) []ExposeResult {
	out := make([]ExposeResult, 0, n)
	for i := 0; i < n; i++ {
		s := &core.Session{
			Prog:     pb(),
			Tool:     tb(),
			MaxRuns:  maxRuns,
			BaseSeed: seed0 + int64(i)*10_007,
		}
		o := s.Expose()
		out = append(out, ExposeResult{Runs: o.RunsToExpose(), Slowdown: o.Slowdown()})
	}
	return out
}

// Summary condenses repeated exposure results per the paper's reporting
// rules (§6.2): a bug "detected in k runs" must hold in a majority of
// attempts; flakier bugs report the median; misses count separately.
type Summary struct {
	Attempts       int
	Exposed        int     // attempts that exposed the bug at all
	RunsReported   int     // majority value, or median across exposing attempts
	MajorityStable bool    // true when ≥10/15-style majority agreed
	MedianSlowdown float64 // median slowdown across exposing attempts
}

// Summarize condenses results with majority threshold (use 10 for the
// paper's 10-of-15 rule).
func Summarize(results []ExposeResult, threshold int) Summary {
	s := Summary{Attempts: len(results)}
	var runs []int
	var slows []float64
	for _, r := range results {
		if r.Runs > 0 {
			s.Exposed++
			runs = append(runs, r.Runs)
			slows = append(slows, r.Slowdown)
		}
	}
	if len(runs) == 0 {
		return s
	}
	if v, ok := Majority(runs, threshold); ok {
		s.RunsReported = v
		s.MajorityStable = true
	} else {
		s.RunsReported = MedianInt(runs)
	}
	s.MedianSlowdown = MedianFloat(slows)
	return s
}
