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
	"repro/internal/types"
)

// Hooks let the local scheduler observe execution lifecycle events.
type Hooks struct {
	// OnBlocked is called when a task enters (true) or leaves (false) a
	// blocking Get/Wait; the scheduler releases/reacquires its resources.
	OnBlocked func(spec types.TaskSpec, blocked bool)
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
	// this node without publishing their locations until they escape
	// (objectstore.Store.PutDeferred). Nil stores every return through the
	// backend's PutObject.
	PutDeferred func(id types.ObjectID, data []byte) error
}

// TaskLedger is the owner-side task-state ledger (DESIGN.md §13): the
// executor stamps RUNNING and terminal transitions into it instead of
// paying a synchronous control-plane write per transition. TransitionRetry
// folds the retry count bump and the PENDING reset into one sequenced
// delta, so a node dying mid-retry can never burn an attempt without
// rescheduling the task. lifetime.TaskLedger is the implementation.
type TaskLedger interface {
	ClockNs() int64
	Transition(id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string) bool
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
func workerIDFor(spec types.TaskSpec) types.WorkerID {
	return types.WorkerID(spec.ID)
}

// Execute runs one task to completion: invoke the function, store returns,
// and record terminal status. args holds the resolved bytes for every
// argument (references already dereferenced by the scheduler). Execute is
// called on its own goroutine by the local scheduler.
func (e *Executor) Execute(ctx context.Context, spec types.TaskSpec, args [][]byte) {
	e.active.Add(1)
	defer e.active.Add(-1)
	wid := workerIDFor(spec)
	e.ledger.Transition(spec.ID, types.TaskRunning, wid, "")

	rets, err := e.invoke(ctx, spec, args)
	if err != nil {
		e.fail(spec, wid, err)
		return
	}
	if len(rets) != spec.NumReturns {
		e.fail(spec, wid, fmt.Errorf("function %s returned %d values, declared %d", spec.Function, len(rets), spec.NumReturns))
		return
	}
	// Capture the finish instant before storing outputs: the first Put can
	// unblock a consumer, and a consumer's recorded start must never
	// precede its producer's recorded finish. The status transition itself
	// still publishes only after every output is durable. The instant comes
	// off the ledger's local cluster clock — no NowNs round trip.
	finishNs := e.ledger.ClockNs()
	for i, data := range rets {
		if data == nil {
			data = codec.MustEncode(nil)
		}
		if perr := e.storeReturn(&spec, i, data); perr != nil {
			e.fail(spec, wid, fmt.Errorf("storing return %d: %w", i, perr))
			return
		}
	}
	e.executed.Add(1)
	e.ledger.TransitionAt(spec.ID, types.TaskFinished, wid, "", finishNs)
}

// storeReturn makes return value i resolvable: delivered to the task's
// origin first (when the node does that), then stored here. In that order
// the origin cannot hear of this node's copy, and start pulling it, while
// the delivery is still on its way — and both precede the terminal stamp.
// A task submitted through this node has its readers here: its returns'
// locations wait until they escape (Hooks.PutDeferred).
func (e *Executor) storeReturn(spec *types.TaskSpec, i int, data []byte) error {
	id := spec.ReturnID(i)
	if spec.Origin == e.node && e.hooks.PutDeferred != nil {
		return e.hooks.PutDeferred(id, data)
	}
	if e.hooks.Deliver != nil {
		e.hooks.Deliver(spec.Origin, spec.ID, spec.TraceID, id, data)
	}
	return e.backend.PutObject(id, data)
}

// invoke runs the function with panic isolation: a panicking task must not
// take down the node (R6), so panics convert to task failures.
func (e *Executor) invoke(ctx context.Context, spec types.TaskSpec, args [][]byte) (rets [][]byte, err error) {
	fn, ok := e.reg.Lookup(spec.Function)
	if !ok {
		return nil, fmt.Errorf("function %q not registered on %v", spec.Function, e.node)
	}
	defer func() {
		if r := recover(); r != nil {
			rets, err = nil, fmt.Errorf("task panicked: %v", r)
		}
	}()
	return fn(core.NewTaskContext(ctx, e.backend, &spec, e), args)
}

// Lend implements core.Lender through Hooks.OnBlocked.
func (e *Executor) Lend(spec *types.TaskSpec, blocked bool) {
	if e.hooks.OnBlocked != nil {
		e.hooks.OnBlocked(*spec, blocked)
	}
}

// fail records a terminal failure or schedules a retry. On terminal
// failure, error payloads are stored under every return object so that
// blocked Gets observe the failure (instead of hanging).
func (e *Executor) fail(spec types.TaskSpec, wid types.WorkerID, taskErr error) {
	retries, retrying := e.ledger.TransitionRetry(spec.ID, spec.MaxRetries)
	if retries < 0 {
		// Ownership moved out from under the execution (a transfer after a
		// false-positive death verdict): the successor re-runs the task, and
		// any stamp from this tenure would be a zombie write the fence
		// consumes anyway.
		return
	}
	if retrying && e.hooks.Resubmit != nil {
		e.ctrl.LogEvent(types.Event{
			Kind: "retry", Task: spec.ID, Node: e.node, Worker: wid,
			Detail: fmt.Sprintf("attempt %d/%d: %v", retries, spec.MaxRetries, taskErr),
		})
		e.hooks.Resubmit(spec)
		return
	}
	e.failed.Add(1)
	for i := 0; i < spec.NumReturns; i++ {
		// Best effort: the store may itself be failing.
		_ = e.storeReturn(&spec, i, codec.EncodeError(taskErr.Error()))
	}
	e.ledger.Transition(spec.ID, types.TaskFailed, wid, taskErr.Error())
}
