package live

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waffle/internal/core"
	"waffle/internal/obs"
	"waffle/internal/sim"
)

// Monitor is the always-on deployment of the live pipeline: instead of a
// Detector looping one scenario to a run budget, a Monitor sits inside a
// serving process and treats each incoming request as one (potential) run
// against the per-path target it belongs to. Per ROADMAP item 4 and the
// paper's production framing (TSVD's always-on sampling, PAPER.md §5),
// two mechanisms keep it cheap enough to never turn off:
//
//   - Sampling admission (Options.SampleRate): only a deterministic-hash
//     fraction of requests run instrumented; the rest execute the plain
//     body and double as the baseline latency population.
//   - SLO delay budgets: each admitted request's injected delays are
//     capped at Options.SLO × p99(baseline latency), derived from the
//     live.base_latency_us histogram (saturating quantile — see
//     obs.HistView.Quantile), so injection provably cannot push the
//     sampled p99 past (1 + SLO) × baseline p99 plus scheduler noise.
//
// Per path, the Monitor runs the standard three-phase pipeline across
// requests: the first admitted request records and analyzes into the
// path's plan (its threads' shards are merged once the request joins);
// every later admitted request injects from a private plan clone and
// merges the decayed probabilities back on clean completion. The
// zero-false-positive contract is unchanged: a bug is reported only when a
// NULL-reference fault coincides with at least one injected delay.
//
// Stop and Start toggle detection without discarding state: plans, decay
// probabilities, and bug reports survive a stop/start cycle, so results
// collected before a stop remain consistent afterwards.
type Monitor struct {
	seed int64

	mu    sync.Mutex // guards opts/copts swaps and the targets map
	opts  Options
	copts core.Options

	targets map[string]*target

	enabled atomic.Bool
	seq     atomic.Int64 // request index: the sampling-admission stream
	budget  atomic.Int64 // per-request injected-delay budget, ns; 0 = none derived
	baseN   atomic.Int64 // baseline observations since the last budget refresh

	reg *obs.Registry

	// Instrument handles resolved once (the request path must not touch
	// the registry mutex).
	reqs, admitted, recorded, sampledOut *obs.Counter
	bugsCtr, dfFaults, truncated         *obs.Counter
	baseHist, sampHist                   *obs.Histogram
}

// target is one request path's detection state.
type target struct {
	search // the path's plan; search.mu also guards bugs
	path   string
	bugs   []*core.BugReport

	recording atomic.Bool // claim flag: at most one recorder per path
	hasPlan   atomic.Bool // lock-free fast check on the request path
}

// budgetRefreshEvery is how many baseline observations elapse between
// p99-budget recomputations.
const budgetRefreshEvery = 64

// NewMonitor returns an enabled monitor. The seed drives sampling
// admission and per-request injector seeds. A nil Options.Metrics gets a
// private registry — the budget derivation needs the latency histograms
// regardless of whether anyone scrapes them.
func NewMonitor(seed int64, opts Options) *Monitor {
	opts = opts.withDefaults()
	if opts.Metrics == nil {
		opts.Metrics = obs.New()
	}
	m := &Monitor{
		seed:    seed,
		opts:    opts,
		copts:   opts.coreOptions(),
		targets: make(map[string]*target),
		reg:     opts.Metrics,
	}
	m.reqs = m.reg.Counter("live.requests")
	m.admitted = m.reg.Counter("live.requests_admitted")
	m.recorded = m.reg.Counter("live.requests_recorded")
	m.sampledOut = m.reg.Counter("live.requests_sampled_out")
	m.bugsCtr = m.reg.Counter("live.bugs_exposed")
	m.dfFaults = m.reg.Counter("live.delay_free_faults")
	m.truncated = m.reg.Counter("live.truncated_delays")
	m.baseHist = m.reg.Histogram("live.base_latency_us", obs.LatencyBuckets)
	m.sampHist = m.reg.Histogram("live.sampled_latency_us", obs.LatencyBuckets)
	m.enabled.Store(true)
	return m
}

// Metrics returns the monitor's registry (never nil).
func (m *Monitor) Metrics() *obs.Registry { return m.reg }

// RequestReport is the monitor's verdict on one request.
type RequestReport struct {
	Path       string
	Seq        int64
	Admitted   bool // ran instrumented (recording or injecting)
	Recorded   bool // this request produced the path's preparation trace
	SampledOut bool // enabled but not admitted by sampling
	Delays     int  // delays injected into this request
	Fault      *sim.Fault
	Bug        *core.BugReport
	Dur        time.Duration
}

// Failed reports whether the request's body faulted (the handler maps
// this to its error response).
func (r *RequestReport) Failed() bool { return r.Fault != nil }

// Do executes one request body under the monitor. Panics in the body are
// recovered into the report's Fault (the serving goroutine never sees
// them); whether the request records, injects, or runs plain is decided
// here per the pipeline phase and sampling admission.
func (m *Monitor) Do(path string, body func(*Thread, *Heap)) RequestReport {
	seq := m.seq.Add(1)
	m.reqs.Inc()
	m.mu.Lock()
	opts, copts := m.opts, m.copts
	m.mu.Unlock()

	if !m.enabled.Load() {
		return m.runPlain(path, seq, body, opts, false)
	}
	if !admitRun(m.seed, int(seq), opts.SampleRate) {
		m.sampledOut.Inc()
		return m.runPlain(path, seq, body, opts, true)
	}

	tgt := m.target(path)
	if !tgt.hasPlan.Load() {
		if tgt.recording.CompareAndSwap(false, true) {
			return m.runRecord(tgt, seq, body, opts, copts)
		}
		// Another request is recording this path right now; run plain
		// (and feed the baseline) rather than wait.
		return m.runPlain(path, seq, body, opts, false)
	}
	return m.runDetect(tgt, seq, body, opts, copts)
}

// target returns (or creates) the path's detection state.
func (m *Monitor) target(path string) *target {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.targets[path]
	if !ok {
		t = &target{path: path}
		m.targets[path] = t
	}
	return t
}

// runPlain executes the body uninstrumented and feeds the baseline
// latency histogram — the denominator of the SLO budget.
func (m *Monitor) runPlain(path string, seq int64, body func(*Thread, *Heap), opts Options, sampled bool) RequestReport {
	res := execRun(runSpec{
		label: path, seed: m.seed + seq, body: body,
		timeout: opts.RunTimeout, metrics: m.reg,
	})
	m.baseHist.Observe(res.wallDur.Microseconds())
	if m.baseN.Add(1)%budgetRefreshEvery == 0 {
		m.refreshBudget(opts.SLO)
	}
	m.fold(path, seq, res, core.DelayStats{}, nil)
	return RequestReport{Path: path, Seq: seq, SampledOut: sampled, Fault: res.fault, Dur: res.wallDur}
}

// runRecord executes the path's preparation run: record, merge the shards
// after join, analyze, install the plan. The recording claim is
// always released; a faulted or timed-out recording yields no plan and
// the next admitted request tries again.
func (m *Monitor) runRecord(tgt *target, seq int64, body func(*Thread, *Heap), opts Options, copts core.Options) RequestReport {
	defer tgt.recording.Store(false)
	res, plan, _ := tgt.record(runSpec{
		label: tgt.path, seed: m.seed + seq, body: body,
		timeout: opts.RunTimeout, metrics: m.reg,
	}, copts)
	m.sampHist.Observe(res.wallDur.Microseconds())
	m.admitted.Inc()
	rep := RequestReport{Path: tgt.path, Seq: seq, Admitted: true, Fault: res.fault, Dur: res.wallDur}
	if plan != nil {
		tgt.hasPlan.Store(true)
		m.recorded.Inc()
		rep.Recorded = true
	}
	m.fold(tgt.path, seq, res, core.DelayStats{}, nil)
	return rep
}

// runDetect executes one injecting request against the path's plan. The
// injector works on a private clone (see search.inject: a timed-out
// request's leaked goroutines keep decaying the clone, never the shared
// plan) and its delays flow through a budget-capped Exec so the request's
// total injected sleep cannot exceed the SLO budget.
func (m *Monitor) runDetect(tgt *target, seq int64, body func(*Thread, *Heap), opts Options, copts core.Options) RequestReport {
	m.admitted.Inc()

	// The delay budget is shared by every goroutine of this request:
	// injected sleeps atomically draw it down and truncate at zero.
	var left atomic.Int64
	if b := m.budget.Load(); b > 0 && opts.SLO > 0 {
		left.Store(b)
	} else {
		left.Store(math.MaxInt64)
	}
	trunc := m.truncated
	res, stats, runPlan := tgt.inject(runSpec{
		label: tgt.path, seed: m.seed + seq, body: body,
		timeout: opts.RunTimeout, metrics: m.reg,
	}, copts, m.seed, opts.ObjectRate, func(t *Thread) core.Exec { return t.budgeted(&left, trunc) })
	m.sampHist.Observe(res.wallDur.Microseconds())

	rep := RequestReport{
		Path: tgt.path, Seq: seq, Admitted: true,
		Delays: stats.Count, Fault: res.fault, Dur: res.wallDur,
	}
	if bug := m.fold(tgt.path, seq, res, stats, runPlan); bug != nil {
		tgt.mu.Lock()
		tgt.bugs = append(tgt.bugs, bug)
		tgt.mu.Unlock()
		rep.Bug = bug
	}
	return rep
}

// fold classifies a finished request through core's run fold. A fault
// after injected delays is the path's bug, counted in live.bugs_exposed;
// a NULL-reference fault with no delays injected is the program failing
// on its own, counted in live.delay_free_faults and never claimed as a
// bug. A request is not a session run, so no session.* metric moves.
func (m *Monitor) fold(path string, seq int64, res runResult, stats core.DelayStats, plan *core.Plan) *core.BugReport {
	if res.fault == nil {
		return nil
	}
	out := &core.Outcome{Program: path, Tool: "waffle-live-monitor"}
	core.FoldRun(out, core.RunReport{Run: int(seq), Seed: m.seed + seq, Stats: stats}, res.execResult(), plan.PairsAt, nil)
	switch {
	case out.Bug != nil:
		m.bugsCtr.Inc()
	case len(out.DelayFreeFaults) > 0:
		m.dfFaults.Inc()
	}
	return out.Bug
}

// refreshBudget rederives the per-request delay budget from the baseline
// latency p99. The quantile saturates at the histogram's last finite
// bound rather than reporting +Inf (obs.HistView.Quantile), so the budget
// is always finite — an overflow-bucket p99 under-budgets instead of
// disabling the cap.
func (m *Monitor) refreshBudget(slo float64) {
	if slo <= 0 {
		m.budget.Store(0)
		return
	}
	p99us, ok := m.reg.Snapshot().HistogramQuantile("live.base_latency_us", 99)
	if !ok {
		return
	}
	ns := int64(slo * p99us * 1e3)
	if ns < int64(time.Millisecond) {
		// Floor: a sub-millisecond budget can't displace anything the
		// scheduler wouldn't, and early noisy p99 estimates would
		// otherwise strangle detection permanently.
		ns = int64(time.Millisecond)
	}
	m.budget.Store(ns)
	m.reg.Gauge("live.budget_ns").Set(float64(ns))
}

// BudgetNS returns the current per-request injected-delay budget in
// nanoseconds (0 before the first derivation or with SLO disabled).
func (m *Monitor) BudgetNS() int64 { return m.budget.Load() }

// Start enables detection. Plans, probabilities, and bug reports from
// before a Stop are retained — Start resumes, it does not reset.
func (m *Monitor) Start() { m.enabled.Store(true) }

// Stop disables detection: subsequent requests run plain (still feeding
// the baseline histogram) until Start. All per-path state is retained.
func (m *Monitor) Stop() { m.enabled.Store(false) }

// Enabled reports whether detection is on.
func (m *Monitor) Enabled() bool { return m.enabled.Load() }

// TuneRequest is a partial options update applied by Tune; nil fields are
// left unchanged.
type TuneRequest struct {
	SampleRate *float64 `json:"sample_rate,omitempty"`
	ObjectRate *float64 `json:"object_rate,omitempty"`
	SLO        *float64 `json:"slo,omitempty"`
	Alpha      *float64 `json:"alpha,omitempty"`
	Decay      *float64 `json:"decay,omitempty"`
}

// Tune applies a partial retune. Validation is strict — an out-of-range
// field rejects the whole request and changes nothing. In-flight requests
// keep the options they started with (they copied them at entry; their
// injectors copied core options at NewInjector); the retune governs
// subsequent requests.
func (m *Monitor) Tune(req TuneRequest) error {
	check := func(name string, v *float64, lo, hi float64) error {
		if v != nil && (math.IsNaN(*v) || *v < lo || *v > hi) {
			return fmt.Errorf("live: %s %g out of range [%g, %g]", name, *v, lo, hi)
		}
		return nil
	}
	if err := errors.Join(
		check("sample_rate", req.SampleRate, 0, 1),
		check("object_rate", req.ObjectRate, 0, 1),
		check("slo", req.SLO, 0, 100),
		check("alpha", req.Alpha, 1, 1000),
		check("decay", req.Decay, 0, 1),
	); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.SampleRate != nil {
		m.opts.SampleRate = *req.SampleRate
	}
	if req.ObjectRate != nil {
		m.opts.ObjectRate = *req.ObjectRate
	}
	if req.SLO != nil {
		m.opts.SLO = *req.SLO
	}
	if req.Alpha != nil {
		m.opts.Alpha = *req.Alpha
	}
	if req.Decay != nil {
		m.opts.Decay = *req.Decay
	}
	m.copts = m.opts.coreOptions()
	if req.SLO != nil {
		go m.refreshBudget(*req.SLO) // off the lock; racing an in-flight refresh is benign
	}
	return nil
}

// Options returns a copy of the monitor's current options.
func (m *Monitor) Options() Options {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.opts
}

// Bugs returns every bug report collected so far, across all paths.
func (m *Monitor) Bugs() []*core.BugReport {
	m.mu.Lock()
	targets := make([]*target, 0, len(m.targets))
	for _, t := range m.targets {
		targets = append(targets, t)
	}
	m.mu.Unlock()
	var bugs []*core.BugReport
	for _, t := range targets {
		t.mu.Lock()
		bugs = append(bugs, t.bugs...)
		t.mu.Unlock()
	}
	return bugs
}

// TargetStatus is one path's entry in MonitorStatus.
type TargetStatus struct {
	Path  string `json:"path"`
	Phase string `json:"phase"` // awaiting-plan | recording | detecting
	Pairs int    `json:"pairs"` // candidate pairs in the plan
	Bugs  int    `json:"bugs"`
}

// MonitorStatus is the control plane's status payload.
type MonitorStatus struct {
	Enabled         bool           `json:"enabled"`
	SampleRate      float64        `json:"sample_rate"`
	ObjectRate      float64        `json:"object_rate"`
	SLO             float64        `json:"slo"`
	BudgetNS        int64          `json:"budget_ns"`
	Requests        int64          `json:"requests"`
	Admitted        int64          `json:"admitted"`
	Recorded        int64          `json:"recorded"`
	SampledOut      int64          `json:"sampled_out"`
	Bugs            int64          `json:"bugs"`
	DelayFreeFaults int64          `json:"delay_free_faults"`
	TruncatedDelays int64          `json:"truncated_delays"`
	AbandonedEvents int64          `json:"abandoned_events"`
	BaseP99US       float64        `json:"base_p99_us"`
	SampledP99US    float64        `json:"sampled_p99_us"`
	Targets         []TargetStatus `json:"targets"`
}

// Status snapshots the monitor for the control plane.
func (m *Monitor) Status() MonitorStatus {
	m.mu.Lock()
	opts := m.opts
	targets := make([]*target, 0, len(m.targets))
	for _, t := range m.targets {
		targets = append(targets, t)
	}
	m.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].path < targets[j].path })

	st := MonitorStatus{
		Enabled:         m.enabled.Load(),
		SampleRate:      opts.SampleRate,
		ObjectRate:      opts.ObjectRate,
		SLO:             opts.SLO,
		BudgetNS:        m.budget.Load(),
		Requests:        m.reqs.Value(),
		Admitted:        m.admitted.Value(),
		Recorded:        m.recorded.Value(),
		SampledOut:      m.sampledOut.Value(),
		Bugs:            m.bugsCtr.Value(),
		DelayFreeFaults: m.dfFaults.Value(),
		TruncatedDelays: m.truncated.Value(),
		AbandonedEvents: m.reg.Counter("live.abandoned_events").Value(),
	}
	snap := m.reg.Snapshot()
	st.BaseP99US, _ = snap.HistogramQuantile("live.base_latency_us", 99)
	st.SampledP99US, _ = snap.HistogramQuantile("live.sampled_latency_us", 99)
	for _, t := range targets {
		t.mu.Lock()
		ts := TargetStatus{Path: t.path, Bugs: len(t.bugs)}
		switch {
		case t.plan != nil:
			ts.Phase = "detecting"
			ts.Pairs = len(t.plan.Pairs)
		case t.recording.Load():
			ts.Phase = "recording"
		default:
			ts.Phase = "awaiting-plan"
		}
		t.mu.Unlock()
		st.Targets = append(st.Targets, ts)
	}
	return st
}
