package scheduler

import (
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
)

// peakPeriod is how long the pool remembers how many executors ran at once.
// The idle stack keeps as many parked as the current or the previous period
// had busy at once, so a warm window of tasks starts no goroutine, and a
// one-off burst is given back within two periods of dispatching. Periods
// roll on a dispatch: a node that dispatches nothing keeps at most its last
// peak parked, and the GC shrinks their stacks.
const peakPeriod = int64(time.Second)

// executors is the local scheduler's pool of executor goroutines (DESIGN.md
// §3.1). Local hands it each admitted task's record; run is Local.runTask.
type executors struct {
	run func(*localTask)
	// started counts executor goroutines started (handOff found none
	// parked): scheduler.executors.started.
	started *metrics.Counter
	// live counts executor goroutines, parked or running: close returns
	// once they have all exited.
	live sync.WaitGroup

	mu sync.Mutex
	// idle is the stack of parked executors, each waiting on its own
	// channel for the next task: handOff pops the most recently parked, the
	// one whose stack and caches are warmest, and a roll trims the least
	// recently parked. close closes what is left.
	idle []chan *localTask
	// busy counts executors handed a task and not yet parked; peak is the
	// most busy at once since the period began at since, and keep the
	// previous period's peak. An executor parks while fewer than
	// max(keep, peak) are parked.
	busy, peak, keep int
	since            int64
	closed           bool
}

func newExecutors(run func(*localTask), reg *metrics.Registry) *executors {
	e := &executors{run: run, started: reg.Counter("scheduler.executors.started")}
	if reg != nil {
		reg.GaugeFunc("scheduler.executors.idle", e.parked)
		reg.GaugeFunc("scheduler.executors.keep", e.bound)
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

// bound reports how many executors the idle stack keeps parked now
// (scheduler.executors.keep).
func (e *executors) bound() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(max(e.keep, e.peak))
}

// handOff runs an admitted task on the most recently parked executor, or on
// a new one when none is parked. now is the dispatch instant: once it is a
// peakPeriod past the period's start, the period rolls, and the executors
// parked beyond its peak are closed. The send readies a parked receiver on
// the sender's processor, next in line, as a go statement would; the
// channel's one slot takes the task if the executor has not reached its
// receive yet.
func (e *executors) handOff(t *localTask, now int64) {
	e.mu.Lock()
	var trimmed []chan *localTask
	if now-e.since >= peakPeriod {
		e.since, e.keep, e.peak = now, e.peak, e.busy
		if n := len(e.idle) - e.keep; n > 0 {
			trimmed = slices.Clone(e.idle[:n])
			e.idle = slices.Delete(e.idle, 0, n)
		}
	}
	e.busy++
	e.peak = max(e.peak, e.busy)
	var next chan *localTask
	if n := len(e.idle); n > 0 {
		next = e.idle[n-1]
		e.idle = e.idle[:n-1]
	}
	e.mu.Unlock()
	for _, c := range trimmed {
		close(c)
	}
	if next != nil {
		next <- t
		return
	}
	e.started.Inc()
	// Counted before the admitted task's wg count drops (runTask), so
	// before Stop can reach close and its wait.
	e.live.Add(1)
	go e.execute(t)
}

// execute is an executor goroutine: it runs its first task, then parks and
// runs whatever it is handed, one task at a time, so a task reuses a stack
// earlier tasks grew instead of growing a fresh one. A task blocked in Get
// keeps its executor; the next dispatch finds another or starts one.
func (e *executors) execute(t *localTask) {
	defer e.live.Done()
	next := make(chan *localTask, 1)
	for ok := true; ok; t, ok = <-next {
		e.run(t)
		if !e.park(next) {
			return
		}
	}
}

// park puts an executor that finished its task on the idle stack, unless the
// pool is closed or as many are parked as the current or the previous
// period had busy at once.
func (e *executors) park(next chan *localTask) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.busy--
	if e.closed || len(e.idle) >= max(e.keep, e.peak) {
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
