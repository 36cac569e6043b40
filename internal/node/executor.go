package node

import (
	"context"

	"repro/internal/core"
	"repro/internal/lifetime"
	"repro/internal/metrics"
	"repro/internal/types"
	workerpkg "repro/internal/worker"
)

// ExecStats exposes execution counters without leaking the executor.
type ExecStats interface {
	Active() int64
	Executed() int64
	Failed() int64
}

// executorShim binds worker.Executor to the node: it supplies the retry
// re-enqueue path and the delivery hooks. Worker lending (a task blocked in
// Get releases its resources to the local scheduler) goes through the
// lender the scheduler passes with each task, its record of the task.
type executorShim struct {
	inner  *workerpkg.Executor
	tracer *metrics.Tracer
	execNs *metrics.Histogram
}

func newExecutorShim(n *Node) *executorShim {
	s := &executorShim{}
	hooks := workerpkg.Hooks{
		Resubmit: func(spec types.TaskSpec) {
			// Retry bookkeeping already reset the task's status; enqueue
			// directly (Submit's dedupe would treat it as in flight).
			_ = n.sched.Enqueue(spec)
		},
		Deliver:     n.fetcher.Deliver,
		PutDeferred: n.store.PutDeferred,
		Announce:    n.store.Announce,
	}
	s.inner = workerpkg.NewExecutor(n.id, n.ctrl, n.cfg.Registry, n, n.taskled, hooks)
	s.tracer = n.tracer
	s.execNs = n.reg.Histogram("worker.exec.ns")
	return s
}

// Execute implements scheduler.ExecFunc. The exec span runs from the
// task's RUNNING stamp to its finish, at the instants the executor read for
// them, so it reads no clock of its own.
func (s *executorShim) Execute(ctx context.Context, tc *core.TaskContext, lender core.Lender, e *lifetime.TaskEntry, spec *types.TaskSpec, args [][]byte) {
	start, end := s.inner.Execute(ctx, tc, lender, e, spec, args)
	sp := s.tracer.BeginAt("exec", "worker.exec", start)
	sp.TaskID, sp.Trace = spec.ID, spec.TraceID
	s.execNs.Observe(sp.EndAt(end))
}

// Active implements ExecStats.
func (s *executorShim) Active() int64 { return s.inner.Active() }

// Executed implements ExecStats.
func (s *executorShim) Executed() int64 { return s.inner.Executed() }

// Failed implements ExecStats.
func (s *executorShim) Failed() int64 { return s.inner.Failed() }
