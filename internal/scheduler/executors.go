package scheduler

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/types"
)

// maxIdleExecutors caps the executor goroutines parked between tasks; one
// that finds the cap reached exits instead. A parked executor costs its
// stack, as the tasks it ran grew it (a few KiB). 64 is four times the
// widest CPU pool a node is given here (16 slots), which leaves room for
// tasks blocked in Get. A wider burst of fractional-CPU tasks starts
// goroutines for its excess, as every task once did.
const maxIdleExecutors = 64

// executors is the local scheduler's pool of executor goroutines (DESIGN.md
// §3.1). Local hands it admitted tasks; run is Local.runTask.
type executors struct {
	run func(types.TaskSpec)
	// started counts executor goroutines started (handOff found none
	// parked): scheduler.executors.started.
	started *metrics.Counter
	// live counts executor goroutines, parked or running: close returns
	// once they have all exited.
	live sync.WaitGroup

	mu sync.Mutex
	// idle is the stack of parked executors, each waiting on its own
	// channel for the next task: handOff pops the most recently parked, the
	// one whose stack and caches are warmest. close closes what is left.
	idle   []chan types.TaskSpec
	closed bool
}

func newExecutors(run func(types.TaskSpec), reg *metrics.Registry) *executors {
	e := &executors{run: run, started: reg.Counter("scheduler.executors.started")}
	if reg != nil {
		reg.GaugeFunc("scheduler.executors.idle", e.parked)
	}
	return e
}

// parked reports how many executors wait for a task on the idle stack
// (scheduler.executors.idle).
func (e *executors) parked() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(len(e.idle))
}

// handOff runs an admitted task on the most recently parked executor, or on
// a new one when none is parked. The send readies a parked receiver on the
// sender's processor, next in line, as a go statement would; the channel's
// one slot takes the task if the executor has not reached its receive yet.
func (e *executors) handOff(spec types.TaskSpec) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		next := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		next <- spec
		return
	}
	e.mu.Unlock()
	e.started.Inc()
	// Counted before the admitted task's wg count drops (runTask), so
	// before Stop can reach close and its wait.
	e.live.Add(1)
	go e.execute(spec)
}

// execute is an executor goroutine: it runs its first task, then parks and
// runs whatever it is handed, one task at a time, so a task reuses a stack
// earlier tasks grew instead of growing a fresh one. A task blocked in Get
// keeps its executor; the next dispatch finds another or starts one.
func (e *executors) execute(spec types.TaskSpec) {
	defer e.live.Done()
	next := make(chan types.TaskSpec, 1)
	for ok := true; ok; spec, ok = <-next {
		e.run(spec)
		if !e.park(next) {
			return
		}
	}
}

// park puts an executor that finished its task on the idle stack, unless the
// pool is closed or maxIdleExecutors are parked already.
func (e *executors) park(next chan types.TaskSpec) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || len(e.idle) >= maxIdleExecutors {
		return false
	}
	e.idle = append(e.idle, next)
	return true
}

// close ends the pool once no task will be handed to it (Stop, after its
// wg.Wait): the parked executors are closed, an executor still on its way
// to park sees the pool closed and exits instead, and close waits for them
// all.
func (e *executors) close() {
	e.mu.Lock()
	e.closed = true
	idle := e.idle
	e.idle = nil
	e.mu.Unlock()
	for _, next := range idle {
		close(next)
	}
	e.live.Wait()
}
