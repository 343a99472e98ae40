// Package sched is a small deterministic fan-out engine for independent
// jobs — the bugs and tests of an evaluation table, the programs of a
// campaign or differential corpus: it executes a contiguous range of jobs
// over a bounded worker pool in fixed-size waves, then commits each
// wave's results in ascending index order.
//
// The wave/commit split is what makes a fan-out reproducible: jobs may
// finish in any order on any worker, but observable effects (result rows,
// journal records) happen only inside commit, which sees results exactly
// as a sequential loop would. A commit returning false stops the engine
// before the next wave — the parallel analog of `break`.
//
// The package is generic and self-contained (no core imports), so core
// can depend on it without an import cycle.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"waffle/internal/obs"
)

// ErrDraining is returned by RunCtx when the pool's Lifecycle has begun
// draining: the submission was rejected before any job started.
var ErrDraining = errors.New("sched: pool is draining")

// Lifecycle tracks in-flight Run calls on a shared pool so an owner (e.g.
// a long-running server) can shut the pool down without orphaning workers:
// Drain rejects every subsequent submission and blocks until the calls
// already inside the pool have returned. Attach one Lifecycle to every
// Pool value that shares a worker budget; Pool copies sharing the pointer
// share the lifecycle.
type Lifecycle struct {
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// NewLifecycle returns a lifecycle accepting submissions.
func NewLifecycle() *Lifecycle { return &Lifecycle{} }

// begin registers one Run call; it reports false (and registers nothing)
// once draining has started. Nil-safe: a nil lifecycle always admits.
func (l *Lifecycle) begin() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return false
	}
	l.inflight.Add(1)
	return true
}

// end unregisters one admitted Run call.
func (l *Lifecycle) end() {
	if l != nil {
		l.inflight.Done()
	}
}

// Draining reports whether Drain or Close has been called.
func (l *Lifecycle) Draining() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.draining
}

// Drain rejects new submissions and blocks until every in-flight Run call
// has returned. Idempotent and safe to call concurrently; every caller
// blocks until the pool is quiet. Drain does not cancel running jobs —
// pass a cancellable context to RunCtx for that and cancel it before (or
// while) draining.
func (l *Lifecycle) Drain() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.draining = true
	l.mu.Unlock()
	l.inflight.Wait()
}

// Close is Drain under the name conventionally paired with resource
// teardown. A drained lifecycle stays closed: submissions are rejected
// forever.
func (l *Lifecycle) Close() { l.Drain() }

// Pool configures a Run.
type Pool struct {
	// Workers bounds concurrently executing jobs. Zero or negative means
	// GOMAXPROCS(0).
	Workers int
	// Wave is the number of jobs launched between commit barriers. Zero or
	// negative means Workers. Larger waves increase speculative work per
	// barrier; smaller waves tighten how far results can run ahead of the
	// committed state.
	Wave int
	// Metrics receives pool counters (sched.jobs, sched.waves,
	// sched.job_panics). Nil disables them.
	Metrics *obs.Registry
	// Tune, when non-nil, is consulted once before each wave with the
	// 1-based wave number and the count of results committed so far; a
	// positive return becomes the worker cap for that wave (the wave size
	// is unchanged — fewer workers just drain it in more batches).
	// Non-positive returns keep the current cap. This is the adaptive
	// controller's seam for shrinking the pool as targets go quiet: it
	// runs between waves, on the committing goroutine, so it can never
	// race in-flight jobs.
	Tune func(wave, committed int) int
	// Life, when non-nil, attaches this pool to a shared lifecycle: RunCtx
	// registers with it on entry and is rejected with ErrDraining once
	// Drain/Close has been called. Pool values copied with the same Life
	// pointer drain together.
	Life *Lifecycle
	// Shared, when non-nil, is a worker-slot semaphore shared across Pool
	// values (a buffered channel; capacity = the global worker budget).
	// Concurrent Run calls whose pools carry the same channel contend for
	// the same slots, making the worker budget global instead of
	// per-call. Workers still bounds this call's own concurrency (and
	// sets the default wave size). Tune adjusts only the local bound; the
	// shared capacity is fixed at creation.
	Shared chan struct{}
}

// Drain drains the pool's lifecycle (no-op without one): new submissions
// are rejected and the call blocks until in-flight Run calls return.
func (p Pool) Drain() { p.Life.Drain() }

// Close closes the pool's lifecycle (no-op without one).
func (p Pool) Close() { p.Life.Close() }

// Result carries one job's outcome to commit.
type Result[R any] struct {
	Index int
	Value R
	Err   error // job error, cancellation, or recovered panic
}

// PanicError wraps a panic recovered from a job so one crashing run is
// reported like any other failed run instead of tearing down the whole
// search.
type PanicError struct {
	Index int    // job index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack at the point of the panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %d panicked: %v", e.Index, e.Value)
}

func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (p Pool) wave() int {
	if p.Wave > 0 {
		return p.Wave
	}
	return p.workers()
}

// Run executes job for every index in [first, last] and feeds the results
// to commit in ascending index order. Jobs run concurrently (at most
// Pool.Workers at a time) within waves of Pool.Wave indices; commits
// happen between waves, single-threaded, in order. When commit returns
// false no further wave starts and Run returns the number of results
// committed (the current wave's remaining results are discarded — they
// come after the stopping index, exactly like iterations after a
// sequential break). An empty range commits nothing.
func Run[R any](p Pool, first, last int, job func(ctx context.Context, index int) (R, error), commit func(Result[R]) bool) int {
	n, _ := RunCtx(context.Background(), p, first, last, job, commit)
	return n
}

// RunCtx is Run under a caller context. The context gates progress at
// wave granularity and flows into every job: once ctx is done, no further
// wave launches, the results of the wave in flight are DISCARDED — they
// never reach commit, so a journal whose cursor advances only on commit
// can replay them safely after a resume — and RunCtx returns the commits
// so far with ctx's error. When the pool carries a draining Lifecycle the submission
// is rejected up front with ErrDraining and zero commits.
func RunCtx[R any](ctx context.Context, p Pool, first, last int, job func(ctx context.Context, index int) (R, error), commit func(Result[R]) bool) (int, error) {
	if !p.Life.begin() {
		return 0, ErrDraining
	}
	defer p.Life.end()

	committed := 0
	waveLen := p.wave()
	workers := p.workers()
	waves := p.Metrics.Counter("sched.waves")
	workerGauge := p.Metrics.Gauge("sched.workers")
	workerGauge.Set(float64(workers))
	wave := 0
	for lo := first; lo <= last; lo += waveLen {
		if err := ctx.Err(); err != nil {
			return committed, err
		}
		wave++
		if p.Tune != nil {
			if w := p.Tune(wave, committed); w > 0 {
				workers = w
				workerGauge.Set(float64(workers))
			}
		}
		waves.Inc()
		hi := lo + waveLen - 1
		if hi > last {
			hi = last
		}
		results := runWave(ctx, p, workers, lo, hi, job)
		if err := ctx.Err(); err != nil {
			// Cancelled mid-wave: the wave's results are speculative state
			// the cancelled search must not observe. Discard them all — a
			// partial commit here would let "cancel" mean "commit an
			// unpredictable prefix of the wave".
			return committed, err
		}
		for _, r := range results {
			committed++
			if !commit(r) {
				return committed, nil
			}
		}
	}
	return committed, nil
}

// runWave executes jobs lo..hi concurrently, at most workers at a time
// locally (and bounded by the shared semaphore when the pool carries
// one), returning results in index order.
func runWave[R any](ctx context.Context, p Pool, workers, lo, hi int, job func(ctx context.Context, index int) (R, error)) []Result[R] {
	n := hi - lo + 1
	results := make([]Result[R], n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			index := lo + off
			if !acquire(ctx, sem) {
				results[off] = Result[R]{Index: index, Err: ctx.Err()}
				return
			}
			defer func() { <-sem }()
			if p.Shared != nil {
				// Local slot held, now the global one: holding the local
				// slot first keeps a call from parking more goroutines on
				// the shared channel than its own worker cap allows.
				if !acquire(ctx, p.Shared) {
					results[off] = Result[R]{Index: index, Err: ctx.Err()}
					return
				}
				defer func() { <-p.Shared }()
			}
			results[off] = runJob(ctx, p, index, job)
		}(i)
	}
	wg.Wait()
	return results
}

// acquire takes one slot from sem, giving up when ctx is done first.
func acquire(ctx context.Context, sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// runJob executes one job, converting panics into PanicError results.
func runJob[R any](ctx context.Context, p Pool, index int, job func(ctx context.Context, index int) (R, error)) (res Result[R]) {
	res.Index = index
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			res.Err = &PanicError{Index: index, Value: r, Stack: stack}
			p.Metrics.Counter("sched.job_panics").Inc()
		}
	}()
	p.Metrics.Counter("sched.jobs").Inc()
	res.Value, res.Err = job(ctx, index)
	return res
}
