// Package tsvd reimplements TSVD (Li et al., SOSP '19) — the
// thread-safety-violation detector whose design Waffle's paper adapts and
// departs from — to the extent the paper's evaluation exercises it:
// instrumentation-site and injection-site statistics (Table 2) and delay
// overlap measurements (§3.3).
//
// TSVD instruments call sites of thread-unsafe APIs only. At run time it
// maintains a candidate set of site pairs via near-miss tracking (same
// object, different threads, |τ1−τ2| ≤ δ), removes pairs via
// happens-before inference, and injects fixed-length delays with
// probability decay, identifying and injecting in the same runs (§2).
package tsvd

import (
	"sort"

	"waffle/internal/core"
	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Options configures the detector. Zero values take TSVD's defaults (the
// same δ and delay length Waffle's evaluation uses, §6.1).
type Options struct {
	Window     sim.Duration // near-miss window δ
	FixedDelay sim.Duration // delay length
	Decay      float64      // probability decay λ
	InstrCost  sim.Duration // per-instrumented-call overhead
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = core.DefaultWindow
	}
	if o.FixedDelay <= 0 {
		o.FixedDelay = core.DefaultFixedDelay
	}
	if o.Decay <= 0 {
		o.Decay = core.DefaultDecay
	}
	if o.InstrCost == 0 {
		o.InstrCost = core.DefaultInstrCost
	} else if o.InstrCost < 0 {
		o.InstrCost = 0
	}
	return o
}

// sitePair is an unordered candidate pair {ℓ1, ℓ2}.
type sitePair struct{ a, b trace.SiteID }

func mkPair(a, b trace.SiteID) sitePair {
	if b < a {
		a, b = b, a
	}
	return sitePair{a, b}
}

type histEv struct {
	site  trace.SiteID
	tid   int
	t     sim.Time
	write bool
}

type delayRec struct {
	start, end sim.Time
	tid        int
	valid      bool
}

// Tool is a TSVD instance. State (candidate set, probabilities, inferred
// removals) persists across runs; call BeginRun between runs. It
// implements memmodel.Hook and reacts only to thread-unsafe API kinds, and
// core.Tool so core.Session can drive it run by run.
type Tool struct {
	opts Options

	pairs      map[sitePair]bool
	removed    map[sitePair]bool
	partners   map[trace.SiteID][]trace.SiteID
	probs      map[trace.SiteID]float64
	instrSites map[trace.SiteID]bool
	injSites   map[trace.SiteID]bool
	runs       int

	hist       map[trace.ObjID][]histEv
	lastDelay  map[trace.SiteID]delayRec
	lastAccess map[int]sim.Time
	seen       map[int]bool
	stats      core.DelayStats
}

// New returns a TSVD instance with defaults applied.
func New(opts Options) *Tool {
	return &Tool{
		opts:       opts.withDefaults(),
		pairs:      make(map[sitePair]bool),
		removed:    make(map[sitePair]bool),
		partners:   make(map[trace.SiteID][]trace.SiteID),
		probs:      make(map[trace.SiteID]float64),
		instrSites: make(map[trace.SiteID]bool),
		injSites:   make(map[trace.SiteID]bool),
	}
}

// BeginRun resets per-run state, keeping the learned candidate set.
func (t *Tool) BeginRun() {
	t.runs++
	t.hist = make(map[trace.ObjID][]histEv)
	t.lastDelay = make(map[trace.SiteID]delayRec)
	t.lastAccess = make(map[int]sim.Time)
	t.seen = make(map[int]bool)
	t.stats = core.DelayStats{}
}

// Stats returns the current run's delay activity. The copy owns its
// Intervals slice, matching the Injector/Online contract: callers may hold
// it while the tool keeps recording.
func (t *Tool) Stats() core.DelayStats { return t.stats.Clone() }

// InstrumentationSiteCount reports the number of unique thread-unsafe API
// call sites observed (Table 2's TSV "Instrumentation Sites").
func (t *Tool) InstrumentationSiteCount() int { return len(t.instrSites) }

// InjectionSiteCount reports the number of unique sites ever admitted to
// the candidate set (Table 2's TSV "Injection Sites").
func (t *Tool) InjectionSiteCount() int { return len(t.injSites) }

// LiveSites implements core.SiteProber: the number of sites that can still
// inject — some un-removed pair and positive probability. Zero means the
// tool has gone quiet: every remaining run is injection-free, which lets
// the adaptive controller scale a quiet TSVD session to zero.
func (t *Tool) LiveSites() int {
	n := 0
	for site, p := range t.probs {
		if p > 0 && t.siteLive(site) {
			n++
		}
	}
	return n
}

// Pairs returns the live candidate pairs, sorted for determinism.
func (t *Tool) Pairs() [][2]trace.SiteID {
	var out [][2]trace.SiteID
	for p := range t.pairs {
		if !t.removed[p] {
			out = append(out, [2]trace.SiteID{p.a, p.b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

var (
	_ memmodel.Hook   = (*Tool)(nil)
	_ core.Tool       = (*Tool)(nil)
	_ core.SiteProber = (*Tool)(nil)
)

// Name implements core.Tool.
func (t *Tool) Name() string { return "tsvd" }

// HookForRun implements core.Tool: every run identifies and injects.
func (t *Tool) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	t.BeginRun()
	return t
}

// RunStats implements core.Tool.
func (t *Tool) RunStats() core.DelayStats { return t.Stats() }

// Candidates implements core.Tool. TSVD has no MemOrder candidate notion,
// so its unordered TSV site pairs involving site map through core.Pair for
// report display only.
func (t *Tool) Candidates(site trace.SiteID) []core.Pair {
	var out []core.Pair
	for _, pr := range t.Pairs() {
		if pr[0] == site || pr[1] == site {
			out = append(out, core.Pair{Delay: pr[0], Target: pr[1]})
		}
	}
	return out
}

// OnAccess implements memmodel.Hook.
func (t *Tool) OnAccess(th *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	if !kind.IsAPI() {
		return
	}
	if t.opts.InstrCost > 0 {
		th.Sleep(t.opts.InstrCost)
	}
	t.instrSites[site] = true
	t.maybeDelay(th, site)
	t.inferHB(th, site)
	t.identify(th, site, obj, kind == trace.KindAPIWrite)
	now := th.Now()
	t.hist[obj] = append(t.hist[obj], histEv{site: site, tid: th.ID(), t: now, write: kind == trace.KindAPIWrite})
	if n := len(t.hist[obj]); n > core.DefaultHistoryDepth {
		t.hist[obj] = t.hist[obj][n-core.DefaultHistoryDepth:]
	}
	t.lastAccess[th.ID()] = now
	t.seen[th.ID()] = true
}

func (t *Tool) maybeDelay(th *sim.Thread, site trace.SiteID) {
	if !t.siteLive(site) {
		return
	}
	p := t.probs[site]
	if p <= 0 || th.World().Rand() >= p {
		return
	}
	start := th.Now()
	end := start.Add(t.opts.FixedDelay)
	t.stats.Count++
	t.stats.Total += t.opts.FixedDelay
	t.stats.Intervals = append(t.stats.Intervals, core.Interval{Site: site, Start: start, End: end})
	th.Sleep(t.opts.FixedDelay)
	t.lastDelay[site] = delayRec{start: start, end: end, tid: th.ID(), valid: true}
	np := p - t.opts.Decay
	if np < 0 {
		np = 0
	}
	t.probs[site] = np
}

func (t *Tool) siteLive(site trace.SiteID) bool {
	for _, other := range t.partners[site] {
		if !t.removed[mkPair(site, other)] {
			return true
		}
	}
	return false
}

// inferHB removes pairs whose delay appears to have propagated as a stall
// of the partner site's thread (§2's happens-before inference).
func (t *Tool) inferHB(th *sim.Thread, site trace.SiteID) {
	now := th.Now()
	for _, other := range t.partners[site] {
		p := mkPair(site, other)
		if t.removed[p] {
			continue
		}
		ld := t.lastDelay[other]
		if !ld.valid || ld.tid == th.ID() {
			continue
		}
		if ld.end > now || now.Sub(ld.end) > t.opts.Window {
			continue
		}
		if !t.seen[th.ID()] {
			continue
		}
		if t.lastAccess[th.ID()] < ld.start {
			t.removed[p] = true
		}
	}
}

// identify is TSVD's near-miss tracking: same object, different threads,
// |τ1−τ2| ≤ δ, at least one write.
func (t *Tool) identify(th *sim.Thread, site trace.SiteID, obj trace.ObjID, write bool) {
	now := th.Now()
	for _, h := range t.hist[obj] {
		if h.tid == th.ID() {
			continue
		}
		gap := now.Sub(h.t)
		if gap < 0 {
			gap = -gap
		}
		if gap > t.opts.Window {
			continue
		}
		if !h.write && !write {
			continue
		}
		p := mkPair(h.site, site)
		if t.removed[p] || t.pairs[p] {
			continue
		}
		t.pairs[p] = true
		t.addPartner(p.a, p.b)
		t.addPartner(p.b, p.a)
		for _, s := range []trace.SiteID{p.a, p.b} {
			t.injSites[s] = true
			if _, ok := t.probs[s]; !ok {
				t.probs[s] = 1.0
			}
		}
	}
}

func (t *Tool) addPartner(a, b trace.SiteID) {
	for _, s := range t.partners[a] {
		if s == b {
			return
		}
	}
	t.partners[a] = append(t.partners[a], b)
}

// Exposure is the outcome of an Expose search.
type Exposure struct {
	Run  int // run in which the first TSV manifested (0 = none)
	TSVs int // violations manifested in that run
}

// Expose drives identification+injection runs against prog until a
// thread-safety violation manifests or maxRuns is exhausted — TSVD's
// end-to-end usage, for completeness of the baseline. Run i uses seed
// baseSeed+i−1; the tool's candidate set persists across runs.
func (t *Tool) Expose(prog interface {
	Execute(seed int64, hook memmodel.Hook) core.ExecResult
}, maxRuns int, baseSeed int64) Exposure {
	for run := 1; run <= maxRuns; run++ {
		t.BeginRun()
		res := prog.Execute(baseSeed+int64(run)-1, t)
		if res.TSVs > 0 {
			return Exposure{Run: run, TSVs: res.TSVs}
		}
	}
	return Exposure{}
}
