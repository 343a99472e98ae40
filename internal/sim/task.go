package sim

import "fmt"

// Task-oriented programming support: a TaskPool schedules submitted tasks
// onto a fixed set of worker threads, and each task carries an async-local
// context captured from its submitter — the analog of .NET's async-local
// storage, which "supports state propagation from a parent to a child task
// irrespective of which thread these tasks are scheduled to run on" (§4.1,
// Note). Waffle's vector clocks ride this propagation exactly as they ride
// thread-local storage: a TLS value implementing TaskForker is forked at
// Submit with the task's fresh id, so parent-before-submit events stay
// causally ordered with everything the task does, no matter which worker
// runs it.

// TaskForker lets a TLS value customize propagation into a submitted
// task's async-local context (the task analog of TLSForker). Values that
// implement only TLSForker (or neither) are copied by reference.
type TaskForker interface {
	// ForkTask runs during Submit, in the submitter's context. It returns
	// the value installed in the task's async-local context and may update
	// the submitter's TLS in place.
	ForkTask(submitter *Thread, taskID int) any
}

// TaskHandle tracks one submitted task.
type TaskHandle struct {
	id   int
	name string
	done Event
}

// ID returns the task's unique id (drawn from the same id space as thread
// ids, so vector-clock components never collide).
func (h *TaskHandle) ID() int { return h.id }

// Name returns the label given at Submit.
func (h *TaskHandle) Name() string { return h.name }

// Wait blocks the calling thread until the task has finished.
func (h *TaskHandle) Wait(t *Thread) { h.done.Wait(t) }

// Done reports whether the task has finished.
func (h *TaskHandle) Done() bool { return h.done.IsSet() }

type taskItem struct {
	handle *TaskHandle
	ctx    []tlsEntry
	fn     func(*Thread)
}

// TaskPool runs submitted tasks on a fixed set of worker threads. Tasks
// execute under the worker thread's identity (as on real thread pools) but
// under their own async-local context: the worker's TLS is swapped for the
// task's context for the duration of the task and restored afterwards —
// the ExecutionContext flow of .NET.
type TaskPool struct {
	queue   Queue
	workers []*Thread
}

// NewTaskPool spawns n worker threads owned by t and returns the pool.
func NewTaskPool(t *Thread, n int, name string) *TaskPool {
	if n <= 0 {
		n = 1
	}
	p := &TaskPool{}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, t.Spawn(fmt.Sprintf("%s-worker%d", name, i), p.work))
	}
	return p
}

// work is each worker's loop: pull a task, install its context, run it.
func (p *TaskPool) work(t *Thread) {
	for {
		v, ok := p.queue.Recv(t)
		if !ok {
			return
		}
		item := v.(*taskItem)
		saved := t.tls
		t.tls = item.ctx
		t.SetOp("task " + item.handle.name)
		item.fn(t)
		t.tls = saved
		item.handle.done.Set(t)
	}
}

// Submit enqueues fn as a task. The task's async-local context is forked
// from the submitting thread's TLS at this moment, in SetTLS order:
// TaskForker values run their fork protocol with the task's fresh id;
// everything else is copied by reference. Returns a handle to Wait on.
func (p *TaskPool) Submit(t *Thread, name string, fn func(*Thread)) *TaskHandle {
	t.w.nextTID++
	handle := &TaskHandle{id: t.w.nextTID, name: name}
	ctx := make([]tlsEntry, 0, len(t.tls))
	for _, e := range t.tls {
		if f, ok := e.val.(TaskForker); ok {
			e.val = f.ForkTask(t, handle.id)
		}
		ctx = append(ctx, e)
	}
	p.queue.Send(t, &taskItem{handle: handle, ctx: ctx, fn: fn})
	return handle
}

// Shutdown closes the queue; workers exit after draining it. Join the pool
// afterwards to synchronize.
func (p *TaskPool) Shutdown(t *Thread) { p.queue.Close(t) }

// Join waits for every worker thread to exit (call Shutdown first).
func (p *TaskPool) Join(t *Thread) {
	for _, w := range p.workers {
		t.Join(w)
	}
}

// Workers returns the pool's worker threads (for inspection in tests).
func (p *TaskPool) Workers() []*Thread { return p.workers }
