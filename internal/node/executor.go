package node

import (
	"context"
	"time"

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

// executorShim binds worker.Executor to the node: it supplies the hooks
// that implement worker lending (a task blocked in Get releases its
// resources to the local scheduler) and the retry re-enqueue path.
type executorShim struct {
	inner  *workerpkg.Executor
	tracer *metrics.Tracer
	execNs *metrics.Histogram
}

func newExecutorShim(n *Node) *executorShim {
	s := &executorShim{}
	hooks := workerpkg.Hooks{
		OnBlocked: func(spec types.TaskSpec, blocked bool) {
			if blocked {
				n.sched.ReleaseFor(spec)
			} else {
				n.sched.ReacquireFor(spec)
			}
		},
		Resubmit: func(spec types.TaskSpec) {
			// Retry bookkeeping already reset the task's status; enqueue
			// directly (Submit's dedupe would treat it as in flight).
			_ = n.sched.Enqueue(spec)
		},
		Deliver: n.fetcher.Deliver,
	}
	s.inner = workerpkg.NewExecutor(n.id, n.ctrl, n.cfg.Registry, n, n.taskled, hooks)
	s.tracer = n.tracer
	s.execNs = n.reg.Histogram("worker.exec.ns")
	return s
}

// Execute implements scheduler.ExecFunc.
func (s *executorShim) Execute(ctx context.Context, spec types.TaskSpec, args [][]byte) {
	sp := s.tracer.Begin("exec", "worker.exec")
	sp.Task = spec.ID.Hex()
	sp.Trace = spec.TraceID
	start := time.Now()
	s.inner.Execute(ctx, spec, args)
	s.execNs.Observe(time.Since(start).Nanoseconds())
	sp.End()
}

// Active implements ExecStats.
func (s *executorShim) Active() int64 { return s.inner.Active() }

// Executed implements ExecStats.
func (s *executorShim) Executed() int64 { return s.inner.Executed() }

// Failed implements ExecStats.
func (s *executorShim) Failed() int64 { return s.inner.Failed() }
