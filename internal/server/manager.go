package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"waffle/internal/control"
	"waffle/internal/obs"
	"waffle/internal/sched"
)

// Errors the manager returns to the API layer.
var (
	ErrNotFound = errors.New("server: no such job")
	ErrDraining = errors.New("server: draining, not accepting jobs")
	ErrTerminal = errors.New("server: job already finished")
)

// Options configures a Manager.
type Options struct {
	// Journal is the JSONL journal path. Empty runs in-memory only (no
	// restart resume).
	Journal string
	// Workers bounds the per-job corpus parallelism AND, via a shared
	// semaphore, the global number of programs in flight across all
	// active jobs. <= 0 means GOMAXPROCS.
	Workers int
	// MaxActive bounds concurrently running jobs; queued jobs wait in
	// priority order. <= 0 means 2.
	MaxActive int
	// Metrics receives campaign counters from every session the manager
	// drives, plus the manager's own job gauges. Nil disables.
	Metrics *obs.Registry
	// Now stamps job submission times; nil means time.Now. Tests inject
	// a fixed clock.
	Now func() time.Time

	// hook, when set (tests only), runs at the start of every program
	// execution — the seam tests use to observe dispatch order and to
	// hold programs in flight. It must be set before New so jobs
	// replayed from the journal see it too.
	hook func(jobID string, index int)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxActive <= 0 {
		o.MaxActive = 2
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// job is the manager's internal job record. The manager's mutex guards
// every field; results grow append-only so snapshot slices stay valid.
type job struct {
	id        string
	seq       int // admission order, breaks priority ties
	spec      JobSpec
	state     JobState
	results   []*ProgramResult
	exposed   int
	violation int
	resumed   bool
	errmsg    string
	submitted time.Time

	cancel        context.CancelFunc
	userCancelled bool
	// notify is closed-and-replaced on every commit and state change:
	// the long-poll edge trigger.
	notify chan struct{}
	// ctl is the job's adaptive controller, nil unless Spec.Adaptive.
	ctl *control.Controller
}

func (j *job) cursor() int { return len(j.results) }

// Manager admits, schedules, journals, and serves campaign jobs. All
// jobs share one sched lifecycle and one global worker semaphore, so a
// Drain atomically fences new waves across every job.
type Manager struct {
	opts    Options
	journal *Journal
	life    *sched.Lifecycle
	shared  chan struct{}

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // admission order, for listing
	active   int
	draining bool
	nextSeq  int

	wg sync.WaitGroup
}

// New builds a Manager, replaying the journal when Options.Journal is
// set: terminal jobs come back queryable, interrupted jobs re-queue at
// their committed cursor and resume as soon as a slot frees.
func New(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	m := &Manager{
		opts:   opts,
		life:   sched.NewLifecycle(),
		shared: make(chan struct{}, opts.Workers),
		jobs:   make(map[string]*job),
	}
	if opts.Journal != "" {
		jr, recs, err := OpenJournal(opts.Journal)
		if err != nil {
			return nil, err
		}
		m.journal = jr
		if err := m.replay(recs); err != nil {
			jr.Close()
			return nil, err
		}
	}
	m.mu.Lock()
	m.dispatchLocked()
	m.mu.Unlock()
	return m, nil
}

// replay rebuilds job state from journal records. Commit order in the
// journal is ascending and contiguous per job, which replay verifies —
// a gap means the journal was edited or the commit contract broke.
func (m *Manager) replay(recs []Record) error {
	for _, r := range recs {
		switch r.Type {
		case "job":
			if r.Spec == nil {
				return fmt.Errorf("server: journal job record %s has no spec", r.Job)
			}
			j := &job{
				id:        r.Job,
				seq:       m.nextSeq,
				spec:      *r.Spec,
				state:     StateQueued,
				notify:    make(chan struct{}),
				submitted: m.opts.Now(),
			}
			m.nextSeq++
			if j.spec.Adaptive {
				j.ctl = control.New(control.Config{})
			}
			m.jobs[j.id] = j
			m.order = append(m.order, j.id)
		case "result":
			j := m.jobs[r.Job]
			if j == nil {
				return fmt.Errorf("server: journal result for unknown job %s", r.Job)
			}
			if r.Result == nil || r.Result.Index != j.cursor() {
				return fmt.Errorf("server: journal for %s not contiguous at index %d", r.Job, j.cursor())
			}
			j.results = append(j.results, r.Result)
			j.tally(r.Result)
		case "state":
			j := m.jobs[r.Job]
			if j == nil {
				return fmt.Errorf("server: journal state for unknown job %s", r.Job)
			}
			j.state = r.State
			j.errmsg = r.Error
		default:
			return fmt.Errorf("server: journal record of unknown type %q", r.Type)
		}
	}
	for _, id := range m.order {
		if j := m.jobs[id]; !j.state.terminal() {
			j.state = StateQueued
			j.resumed = j.cursor() > 0
		}
	}
	return nil
}

// tally folds a committed result into the job's aggregates.
func (j *job) tally(pr *ProgramResult) {
	for _, oc := range pr.Outcomes {
		if oc.Runs > 0 {
			j.exposed++
		}
	}
	j.violation += len(pr.Violations)
}

// Submit admits a job: validates, journals, enqueues, dispatches.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return JobStatus{}, ErrDraining
	}
	j := &job{
		id:        fmt.Sprintf("job-%d", m.nextSeq+1),
		seq:       m.nextSeq,
		spec:      spec,
		state:     StateQueued,
		notify:    make(chan struct{}),
		submitted: m.opts.Now(),
	}
	m.nextSeq++
	if spec.Adaptive {
		j.ctl = control.New(control.Config{})
	}
	if err := m.journal.Append(Record{Type: "job", Job: j.id, Spec: &spec}); err != nil {
		return JobStatus{}, err
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.dispatchLocked()
	return m.statusLocked(j), nil
}

// dispatchLocked starts queued jobs while active slots remain, highest
// priority first, admission order within a priority. Caller holds mu.
func (m *Manager) dispatchLocked() {
	if m.draining {
		return
	}
	for m.active < m.opts.MaxActive {
		var pick *job
		for _, id := range m.order {
			j := m.jobs[id]
			if j.state != StateQueued {
				continue
			}
			if pick == nil || j.spec.Priority > pick.spec.Priority ||
				(j.spec.Priority == pick.spec.Priority && j.seq < pick.seq) {
				pick = j
			}
		}
		if pick == nil {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		pick.state = StateRunning
		pick.cancel = cancel
		m.active++
		m.gauge()
		m.wg.Add(1)
		go m.runJob(ctx, pick)
	}
}

// runJob sweeps one job's remaining corpus on the shared pool. Programs
// commit in index order; each commit journals first, then publishes.
func (m *Manager) runJob(ctx context.Context, j *job) {
	defer m.wg.Done()
	pool := sched.Pool{
		Workers: m.opts.Workers,
		Life:    m.life,
		Shared:  m.shared,
		Metrics: m.opts.Metrics,
	}
	m.mu.Lock()
	first, last := j.cursor(), j.spec.Corpus.Programs-1
	spec, ctl := j.spec, j.ctl
	m.mu.Unlock()
	engine := Engine{Name: spec.Engine.Kind, NewTool: spec.Engine.NewTool, MaxRuns: spec.MaxRuns, DisarmRuns: spec.DisarmRuns}

	var commitErr error
	_, runErr := sched.RunCtx(ctx, pool, first, last,
		func(jctx context.Context, i int) (*ProgramResult, error) {
			if m.opts.hook != nil {
				m.opts.hook(j.id, i)
			}
			return runProgram(jctx, spec.Corpus, i, engine, ctl, m.opts.Metrics), nil
		},
		func(r sched.Result[*ProgramResult]) bool {
			if r.Err != nil {
				// A recovered panic: record it as a violation-bearing
				// placeholder so the cursor stays contiguous and the
				// breach is visible in the results.
				r.Value = &ProgramResult{
					Index:      r.Index,
					Violations: []string{fmt.Sprintf("program %d aborted: %v", r.Index, r.Err)},
				}
			}
			if err := m.commit(j, r.Value); err != nil {
				commitErr = err
				return false
			}
			return true
		})

	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case commitErr != nil:
		m.finishLocked(j, StateFailed, commitErr.Error())
	case runErr == nil:
		m.finishLocked(j, StateCompleted, "")
	case j.userCancelled:
		m.finishLocked(j, StateCancelled, "")
	default:
		// Drain (or manager shutdown): the run stopped at a wave
		// boundary with only committed work journaled. Park the job as
		// queued — in-memory it could re-dispatch after a resume, and
		// in the journal it has no terminal state, so a restarted
		// server picks it up at the cursor.
		j.state = StateQueued
		j.cancel = nil
		j.bump()
	}
	m.active--
	m.gauge()
	m.dispatchLocked()
}

// commit journals one program result, then publishes it to pollers. The
// journal write comes first: a result a client has seen can never be
// lost to a crash.
func (m *Manager) commit(j *job, pr *ProgramResult) error {
	if err := m.journal.Append(Record{Type: "result", Job: j.id, Index: pr.Index, Result: pr}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if pr.Index != j.cursor() {
		return fmt.Errorf("server: commit out of order: index %d at cursor %d", pr.Index, j.cursor())
	}
	j.results = append(j.results, pr)
	j.tally(pr)
	j.bump()
	return nil
}

// finishLocked journals and publishes a terminal transition. mu held.
func (m *Manager) finishLocked(j *job, s JobState, errmsg string) {
	j.state = s
	j.errmsg = errmsg
	j.cancel = nil
	// Journal failures on the terminal record are unrecoverable but must
	// not wedge the job in memory; the restart will redo the tail.
	_ = m.journal.Append(Record{Type: "state", Job: j.id, State: s, Error: errmsg})
	j.bump()
}

// bump wakes every long-poller: close the edge channel, arm a new one.
func (j *job) bump() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// gauge publishes the manager's job-state gauges. mu held.
func (m *Manager) gauge() {
	if m.opts.Metrics == nil {
		return
	}
	queued := 0
	for _, j := range m.jobs {
		if j.state == StateQueued {
			queued++
		}
	}
	m.opts.Metrics.Gauge("server.jobs_active").Set(float64(m.active))
	m.opts.Metrics.Gauge("server.jobs_queued").Set(float64(queued))
}

// Cancel stops a job. A queued job cancels immediately; a running job's
// context is cancelled and the in-flight wave is discarded (the sched
// contract), so the journal keeps only fully committed programs.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		m.finishLocked(j, StateCancelled, "")
		return nil
	case StateRunning:
		j.userCancelled = true
		j.cancel()
		return nil
	default:
		return ErrTerminal
	}
}

// Status returns one job's API view.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// List returns every job in admission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

func (m *Manager) statusLocked(j *job) JobStatus {
	return JobStatus{
		ID:         j.id,
		State:      j.state,
		Spec:       j.spec,
		Cursor:     j.cursor(),
		Programs:   j.spec.Corpus.Programs,
		Exposed:    j.exposed,
		Violations: j.violation,
		Resumed:    j.resumed,
		Error:      j.errmsg,
		Submitted:  j.submitted,
	}
}

// ResultsPage is one long-poll response: the results after the client's
// cursor plus the state needed to decide whether to poll again.
type ResultsPage struct {
	Job   string   `json:"job"`
	State JobState `json:"state"`
	// After echoes the request cursor; Next is the cursor to pass on the
	// next poll (After + len(Results)).
	After   int              `json:"after"`
	Next    int              `json:"next"`
	Results []*ProgramResult `json:"results"`
	// Done means no further results will ever arrive: stop polling.
	Done bool `json:"done"`
}

// Results returns the job's results after the given cursor, blocking up
// to wait for new commits when none are ready (long-poll). wait <= 0
// returns immediately.
func (m *Manager) Results(ctx context.Context, id string, after int, wait time.Duration) (ResultsPage, error) {
	if after < 0 {
		after = 0
	}
	deadline := m.opts.Now().Add(wait)
	for {
		m.mu.Lock()
		j := m.jobs[id]
		if j == nil {
			m.mu.Unlock()
			return ResultsPage{}, ErrNotFound
		}
		page := ResultsPage{Job: id, State: j.state, After: after, Next: after}
		if after < j.cursor() {
			page.Results = j.results[after:j.cursor():j.cursor()]
			page.Next = after + len(page.Results)
		}
		page.Done = j.state.terminal() && page.Next >= j.cursor()
		ch := j.notify
		m.mu.Unlock()

		if len(page.Results) > 0 || page.Done || wait <= 0 {
			return page, nil
		}
		remain := deadline.Sub(m.opts.Now())
		if remain <= 0 {
			return page, nil
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return page, nil
		case <-ctx.Done():
			t.Stop()
			return page, nil
		}
	}
}

// Drain stops the manager for shutdown: no new submissions, no new
// dispatches, every running job is interrupted at its next wave boundary
// and parked resumable (journaled as non-terminal at its cursor). Drain
// returns when every job goroutine has exited or ctx expires.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()

	// Fence the scheduler: after this no new wave starts anywhere.
	m.life.Drain()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return m.journal.Close()
}

// Draining reports whether Drain has begun (health endpoint).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Snapshot returns the jobs sorted by ID for deterministic test output.
func (m *Manager) Snapshot() []JobStatus {
	out := m.List()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
