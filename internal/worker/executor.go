// Package worker executes tasks on a node. The paper's prototype ran a
// fixed pool of worker processes per node; here each task executes on a
// goroutine admitted by the local scheduler's resource accounting, and a
// task that blocks on Get lends its resources back to the scheduler — the
// same worker-lending behaviour Ray uses to keep nested tasks (R3) from
// deadlocking a node.
package worker

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/types"
)

// Hooks let the local scheduler observe execution lifecycle events.
type Hooks struct {
	// Resubmit re-enqueues a task that should retry after a failure.
	Resubmit func(spec types.TaskSpec)
	// Deliver, when set, is offered every return value (or error payload)
	// just before it is stored locally, so the node can send a small one
	// straight to the node the task was submitted through (DESIGN.md §6.3).
	// Best effort: it reports nothing, and the local store and the terminal
	// stamp follow whatever it did. It takes the three spec fields it uses,
	// not the spec: the call chain under it is the deepest a task's
	// goroutine runs, and a TaskSpec by value is 200 bytes in every frame.
	Deliver func(origin types.NodeID, task types.TaskID, trace uint64, id types.ObjectID, data []byte)
	// PutDeferred, when set, stores the returns of a task submitted through
	// this node, whose locations wait for the task's birth to land
	// (objectstore.Store.PutDeferred); Announce, set with it, announces them
	// when the birth landed before the task ended (TaskLedger.EndOwed). Nil
	// stores every return through the backend's PutObject.
	PutDeferred func(id types.ObjectID, data []byte) error
	Announce    func(ids ...types.ObjectID)
}

// TaskLedger is the owner-side task-state ledger (DESIGN.md §13): the
// executor stamps RUNNING and terminal transitions into it instead of
// paying a synchronous control-plane write per transition. While a task's
// birth is owed, its RUNNING stamp parks in the ledger entry its record
// holds, with no lock (Park), and its end is one call that also asks whether
// the birth still owes its returns' locations (EndOwed). TransitionRetry
// folds the retry count bump and the PENDING reset into one sequenced
// delta, so a node dying mid-retry can never burn an attempt without
// rescheduling the task. lifetime.TaskLedger is the implementation.
type TaskLedger interface {
	ClockNs() int64
	Park(e *lifetime.TaskEntry, id types.TaskID, status types.TaskStatus, atNs int64) bool
	EndOwed(e *lifetime.TaskEntry, id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string, atNs int64) bool
	TransitionAt(id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string, atNs int64) bool
	TransitionRetry(id types.TaskID, maxRetries int) (int, bool)
}

// Executor runs task specs against a function registry.
type Executor struct {
	node    types.NodeID
	ctrl    gcs.API
	reg     *core.Registry
	backend core.Backend
	hooks   Hooks
	ledger  TaskLedger

	active   atomic.Int64
	executed atomic.Int64
	failed   atomic.Int64
}

// NewExecutor wires an executor. backend is the node's core.Backend, used
// to build TaskContexts so tasks can submit subtasks; ledger is the node's
// task ledger, the only writer of the states the executor stamps.
func NewExecutor(node types.NodeID, ctrl gcs.API, reg *core.Registry, backend core.Backend, ledger TaskLedger, hooks Hooks) *Executor {
	return &Executor{node: node, ctrl: ctrl, reg: reg, backend: backend, ledger: ledger, hooks: hooks}
}

// Active returns the number of currently executing tasks.
func (e *Executor) Active() int64 { return e.active.Load() }

// Executed returns the cumulative count of finished executions.
func (e *Executor) Executed() int64 { return e.executed.Load() }

// Failed returns the cumulative count of failed executions.
func (e *Executor) Failed() int64 { return e.failed.Load() }

// workerIDFor derives a stable pseudo worker identity for profiling.
func workerIDFor(spec *types.TaskSpec) types.WorkerID {
	return types.WorkerID(spec.ID)
}

// Execute runs one task to completion: invoke the function, store returns,
// and record terminal status. args holds the resolved bytes for every
// argument (references already dereferenced by the scheduler); spec is
// read-only. Execute is called on its own goroutine by the local scheduler.
// It reads the ledger's clock twice, and returns both readings so its
// caller can time the task without a read of its own: startNs, the RUNNING
// stamp's instant, and endNs, the finish's (or the failure's).
//
// tc is the task's API handle, zero until Execute sets it up in place, and
// entry the ledger entry where the run's stamps park while the task's birth
// is owed (TaskLedger.Park): the scheduler passes the ones its record of
// the task holds. lender, when not
// nil, is told when the task blocks in a Get or Wait (worker lending), and
// once more when its function has returned: Lend(spec, true), with no false
// after it, before the returns are stored or the task retried, so that the
// reader a return wakes finds the task's resources free.
func (e *Executor) Execute(ctx context.Context, tc *core.TaskContext, lender core.Lender, entry *lifetime.TaskEntry, spec *types.TaskSpec, args [][]byte) (startNs, endNs int64) {
	e.active.Add(1)
	defer e.active.Add(-1)
	wid := workerIDFor(spec)
	startNs = e.ledger.ClockNs()
	e.ledger.Park(entry, spec.ID, types.TaskRunning, startNs)

	tc.Init(ctx, e.backend, spec, lender)
	rets, err := e.invoke(tc, spec, args)
	if lender != nil {
		lender.Lend(spec, true)
	}
	if err != nil {
		return startNs, e.fail(entry, spec, wid, err)
	}
	if len(rets) != spec.NumReturns {
		return startNs, e.fail(entry, spec, wid, fmt.Errorf("function %s returned %d values, declared %d", spec.Function, len(rets), spec.NumReturns))
	}
	// Capture the finish instant before storing outputs: the first Put can
	// unblock a consumer, and a consumer's recorded start must never
	// precede its producer's recorded finish. The status transition itself
	// still publishes only after every output is durable.
	endNs = e.ledger.ClockNs()
	for i, data := range rets {
		if data == nil {
			data = codec.MustEncode(nil)
		}
		if perr := e.storeReturn(spec, i, data); perr != nil {
			return startNs, e.fail(entry, spec, wid, fmt.Errorf("storing return %d: %w", i, perr))
		}
	}
	e.executed.Add(1)
	e.end(entry, spec, types.TaskFinished, wid, "", endNs)
	return startNs, endNs
}

// end stamps the task's end once its returns are stored. Returns held back
// here wait for the task's birth, if it is still owed, whose landing
// announces them (TaskLedger.EndOwed); otherwise they are announced here,
// before the stamp.
func (e *Executor) end(entry *lifetime.TaskEntry, spec *types.TaskSpec, status types.TaskStatus, wid types.WorkerID, errMsg string, atNs int64) {
	if e.heldBack(spec) {
		if e.ledger.EndOwed(entry, spec.ID, status, wid, errMsg, atNs) {
			return
		}
		var one [1]types.ObjectID
		e.hooks.Announce(spec.AppendReturns(one[:0])...)
	}
	e.ledger.TransitionAt(spec.ID, status, wid, errMsg, atNs)
}

// heldBack reports whether spec's returns are stored held back here.
func (e *Executor) heldBack(spec *types.TaskSpec) bool {
	return spec.Origin == e.node && e.hooks.PutDeferred != nil
}

// storeReturn makes return value i resolvable: delivered to the task's
// origin first (when the node does that), then stored here. In that order
// the origin cannot hear of this node's copy, and start pulling it, while
// the delivery is still on its way — and both precede the terminal stamp.
// A task submitted through this node has its readers here: its returns'
// locations wait for its birth (Hooks.PutDeferred).
func (e *Executor) storeReturn(spec *types.TaskSpec, i int, data []byte) error {
	id := spec.ReturnID(i)
	if e.heldBack(spec) {
		return e.hooks.PutDeferred(id, data)
	}
	if e.hooks.Deliver != nil {
		e.hooks.Deliver(spec.Origin, spec.ID, spec.TraceID, id, data)
	}
	return e.backend.PutObject(id, data)
}

// invoke runs the function with panic isolation: a panicking task must not
// take down the node (R6), so panics convert to task failures.
func (e *Executor) invoke(tc *core.TaskContext, spec *types.TaskSpec, args [][]byte) (rets [][]byte, err error) {
	fn, ok := e.reg.Lookup(spec.Function)
	if !ok {
		return nil, fmt.Errorf("function %q not registered on %v", spec.Function, e.node)
	}
	defer func() {
		if r := recover(); r != nil {
			rets, err = nil, fmt.Errorf("task panicked: %v", r)
		}
	}()
	return fn(tc, args)
}

// fail records a terminal failure or schedules a retry, and returns the
// instant it read for that, before any error payload is stored. On
// terminal failure, error payloads are stored under every return object so
// that blocked Gets observe the failure (instead of hanging).
func (e *Executor) fail(entry *lifetime.TaskEntry, spec *types.TaskSpec, wid types.WorkerID, taskErr error) (atNs int64) {
	atNs = e.ledger.ClockNs()
	retries, retrying := e.ledger.TransitionRetry(spec.ID, spec.MaxRetries)
	if retries < 0 {
		// Ownership moved out from under the execution (a transfer after a
		// false-positive death verdict): the successor re-runs the task, and
		// any stamp from this tenure would be a zombie write the fence
		// consumes anyway.
		return atNs
	}
	if retrying && e.hooks.Resubmit != nil {
		e.ctrl.LogEvent(types.Event{
			Kind: "retry", Task: spec.ID, Node: e.node, Worker: wid,
			Detail: fmt.Sprintf("attempt %d/%d: %v", retries, spec.MaxRetries, taskErr),
		})
		e.hooks.Resubmit(*spec)
		return atNs
	}
	e.failed.Add(1)
	for i := 0; i < spec.NumReturns; i++ {
		// Best effort: the store may itself be failing.
		_ = e.storeReturn(spec, i, codec.EncodeError(taskErr.Error()))
	}
	e.end(entry, spec, types.TaskFailed, wid, taskErr.Error(), atNs)
	return atNs
}
