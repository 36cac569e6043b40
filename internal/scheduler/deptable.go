package scheduler

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/types"
)

// The resolve loop's periods (DESIGN.md §4.2): a missed object-ready edge
// is noticed within pollPeriod, and a pending object's producer is probed
// for a stranded task every strandedPeriod wakeups (≤ 200 ms), starting one
// period in, so a healthy producer costs no probe. fetchTimeout bounds one
// pull of the object: a pull cut short starts again from its first byte, so
// the bound must outlast the largest transfer, not a poll period.
const (
	pollPeriod     = 10 * time.Millisecond
	strandedPeriod = 20
	fetchTimeout   = 30 * time.Second
)

// waitingTask is a task in the dependency table: one with unresolved
// dependencies, or one whose QUEUED stamp is not in yet. It becomes runnable
// once both are done, whichever comes last.
type waitingTask struct {
	spec    types.TaskSpec
	missing map[types.ObjectID]bool
	queued  bool
}

// parkedObj is one row of the dependency table: the tasks parked on one
// missing object, and the cancel of its one resolver. The row goes, and the
// resolver stops polling and fetching, once no parked task needs the object.
type parkedObj struct {
	tasks  map[types.TaskID]*waitingTask
	cancel context.CancelFunc
}

// depTable is the local scheduler's dependency table (DESIGN.md §4.2): the
// tasks admitted here that wait on an argument not yet local or on their
// QUEUED stamp, by task (waiting) and by missing object (parked), with one
// resolver per missing object. A task that waits on nothing more goes to
// Local's runnable queue (pushRunnable) under the table's lock, so no other
// lock holder sees it in neither place or in both.
type depTable struct {
	l *Local
	// parks counts tasks parked on an object not yet local
	// (scheduler.tasks.parked); resolvers, live resolver goroutines.
	parks     *metrics.Counter
	resolvers atomic.Int64

	mu      sync.Mutex
	waiting map[types.TaskID]*waitingTask
	parked  map[types.ObjectID]*parkedObj
}

func newDepTable(l *Local) *depTable {
	d := &depTable{l: l, parks: l.cfg.Metrics.Counter("scheduler.tasks.parked"),
		waiting: make(map[types.TaskID]*waitingTask), parked: make(map[types.ObjectID]*parkedObj)}
	if l.cfg.Metrics != nil {
		l.cfg.Metrics.GaugeFunc("scheduler.waiting.objects", func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return int64(len(d.parked))
		})
	}
	return d
}

// park enters spec in the table, under each object in missing, or returns
// nil once Stop has run. Stop sets its flag before its eviction takes this
// lock, so a task parked here is evicted.
func (d *depTable) park(spec types.TaskSpec, missing map[types.ObjectID]bool) *waitingTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.l.isStopped() {
		return nil
	}
	w := &waitingTask{spec: spec, missing: missing}
	d.waiting[spec.ID] = w
	if len(missing) > 0 {
		d.parks.Inc()
	}
	for dep := range missing {
		row := d.parked[dep]
		if row == nil {
			// The object's first parked task starts its one resolver, counted
			// under the lock that checked stopped, so Stop's wg.Wait cannot
			// slip between the check and the resolver's registration.
			row = &parkedObj{tasks: make(map[types.TaskID]*waitingTask)}
			var ctx context.Context
			ctx, row.cancel = context.WithCancel(d.l.stopCtx)
			d.parked[dep] = row
			d.l.wg.Add(1)
			d.resolvers.Add(1)
			go d.resolveParked(ctx, dep)
		}
		row.tasks[spec.ID] = w
	}
	return w
}

// queue records w's QUEUED stamp and reports whether that made w runnable.
func (d *depTable) queue(w *waitingTask) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.waiting[w.spec.ID] != w {
		// Evicted since park: the evictor settled the task and its borrows.
		return false
	}
	// Stamp this node as the task's current holder. If this node dies with
	// the task still queued, the task table points at a dead node and the
	// owner-death transfer (or any consumer's reconstruction check) will
	// re-own the task (R6); without the stamp, a task queued-but-not-
	// dispatched on a dead node would be invisible. The stamp is made under
	// the table's lock, which every evictor of a task in the table takes, so
	// that no evictor's stamps (FailTask's FAILED, say) can come before it.
	// It is an in-process append that rides the next batched flush while the
	// ledger's flusher runs; a ledger never started (unit tests) or halted at
	// shutdown flushes it inline, under the lock.
	d.l.cfg.Ledger.Transition(w.spec.ID, types.TaskQueued, types.NilWorkerID, "")
	w.queued = true
	return d.readyLocked(w)
}

// readyLocked moves w from the table to the runnable queue if nothing is
// missing and its QUEUED stamp is in, and reports whether it did.
func (d *depTable) readyLocked(w *waitingTask) bool {
	if len(w.missing) > 0 || !w.queued {
		return false
	}
	delete(d.waiting, w.spec.ID)
	d.l.pushRunnable(w.spec)
	return true
}

// len reports how many tasks are in the table.
func (d *depTable) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.waiting)
}

// evict takes the tasks pred matches out of the table and every row they
// sit in, and returns them (Local.evict).
func (d *depTable) evict(pred evictPred) (out []types.TaskSpec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, w := range d.waiting {
		if !pred(w.spec, w.missing) {
			continue
		}
		out = append(out, w.spec)
		delete(d.waiting, id)
		for dep := range w.missing {
			d.unwaitLocked(dep, id)
		}
	}
	return out
}

// unwaitLocked drops task from obj's row and cancels obj's resolver once no
// parked task needs the object any more.
func (d *depTable) unwaitLocked(obj types.ObjectID, task types.TaskID) {
	if row := d.parked[obj]; row != nil {
		delete(row.tasks, task)
		if len(row.tasks) == 0 {
			delete(d.parked, obj)
			row.cancel()
		}
	}
}

// landed clears obj from every task parked on it; a task whose missing set
// empties becomes runnable, and landed reports whether one did. The store
// calls it on every arrival (arrived), and a row's resolver on finding its
// object resident. One wake clears every dependency of the task that has
// already landed, not just obj: under a busy runqueue each object's
// resolver waits for a timeslice, so clearing strictly one per wake would
// make the park→scheduled edge grow linearly in dependency count even when
// all the objects are long since local.
func (d *depTable) landed(obj types.ObjectID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	ready := false
	if row := d.parked[obj]; row != nil {
		for id, w := range row.tasks {
			for dep := range w.missing {
				if dep == obj || d.l.cfg.Store.Contains(dep) {
					delete(w.missing, dep)
					d.unwaitLocked(dep, id)
				}
			}
			if d.readyLocked(w) {
				ready = true
			}
		}
	}
	return ready
}

// arrived is the store's arrival hook: it lands obj's row on the storing
// goroutine, before the store publishes the object's location — a round
// trip that a row's resolver, pulling the object, would otherwise wait out
// before landing it (E19). The dispatch it makes due runs on a goroutine of
// its own, so no control-plane call of the dispatch (a grouped task's
// claim, a stray's respill) holds up that publish.
func (d *depTable) arrived(obj types.ObjectID) {
	if d.landed(obj) {
		go d.l.dispatchReady()
	}
}

// resolveParked is the one resolver of a missing object tasks are parked
// on. It ends when the object lands, when nothing can produce it any more,
// or when its row empties and cancels it.
func (d *depTable) resolveParked(ctx context.Context, obj types.ObjectID) {
	defer d.l.wg.Done()
	defer d.resolvers.Add(-1)
	_, err := d.resolve(ctx, obj, types.NilTaskID, true)
	switch {
	case err == nil:
		if d.landed(obj) {
			d.l.dispatchReady()
		}
	case errors.Is(err, types.ErrReclaimed):
		// No record says anything can produce obj any more: the tasks
		// parked on it fail (types.ReasonReclaimed; Get on their returns
		// yields core.ErrReclaimed).
		waitsOn := func(_ types.TaskSpec, missing map[types.ObjectID]bool) bool { return missing[obj] }
		d.l.settle(d.l.evict(waitsOn, true), func(spec types.TaskSpec) {
			d.l.FailTask(spec, types.ReasonReclaimed+obj.String())
		})
	}
}

// resolve is the one resolve loop, under a Get and under a parked
// dependency: check the store, read the record, fetch, reconstruct or probe,
// then wait for the arrival, the ready topic or a poll. A Get subscribes
// before its first look, so no ready edge falls between them. A parked
// resolver's first look runs unsubscribed, so a dependency already ready
// elsewhere is pulled without waiting to attach to its topic (a round trip
// on a sharded control plane) while enqueue's borrow flush is in flight
// (E19); a look that leaves the object missing subscribes and looks again
// before any probe or wait. A parked resolver needs only residency, and
// fails only on types.ErrReclaimed. The arrival channel is taken once per
// wait that can end by an arrival, not once per lap, and dropped on return,
// so a resolve that ends without the object holds no waiter in the store.
func (d *depTable) resolve(ctx context.Context, id types.ObjectID, task types.TaskID, parked bool) ([]byte, error) {
	cfg := &d.l.cfg
	var sub gcs.Sub
	var poll *time.Ticker
	var arrival <-chan struct{}
	if !parked {
		sub = cfg.Ctrl.Subscribe(gcs.TopicObjectReady, id)
		poll = time.NewTicker(pollPeriod)
	}
	defer func() {
		if arrival != nil {
			cfg.Store.StopWait(id, arrival)
		}
		if sub != nil {
			sub.Close()
			poll.Stop()
		}
	}()
	// wakeups numbers the looks that follow a wait.
	for wakeups := 1; ; {
		if parked {
			if cfg.Store.Contains(id) {
				return nil, nil
			}
		} else if data, ok := cfg.Store.Get(id); ok {
			return data, nil
		}
		probe := false
		info, ok := cfg.Ctrl.GetObject(id)
		switch {
		case !ok || info.State == types.ObjectPending && info.Producer.IsNil():
			// No lineage in sight. On the first look that is the producer
			// edge trailing its task by a ledger flush; after a poll it is
			// worth asking whether any task returns the object at all.
			probe = wakeups > 1
		case info.State == types.ObjectReady:
			if cfg.Fetcher != nil && len(info.Locations) > 0 {
				fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
				err := cfg.Fetcher.FetchObject(fctx, info)
				cancel()
				if err == nil {
					continue
				}
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
		case info.State == types.ObjectLost:
			probe = true
		default:
			// Pending: possibly a producer stranded on a dead node (queued or
			// running there when it died). The reconstructor no-ops for
			// healthy producers and replays stranded ones.
			probe = wakeups%strandedPeriod == 0
		}
		if sub == nil {
			sub = cfg.Ctrl.Subscribe(gcs.TopicObjectReady, id)
			poll = time.NewTicker(pollPeriod)
			continue
		}
		if probe && cfg.Recon != nil {
			err := cfg.Recon(id, task)
			if errors.Is(err, types.ErrReclaimed) || err != nil && !parked && !errors.Is(err, fault.ErrControlUnavailable) {
				return nil, err
			}
		}
		if arrival == nil {
			arrival = cfg.Store.WaitChan(id)
		}
		select {
		case <-arrival:
			arrival = nil // re-taken if the object leaves again
		case <-sub.C():
		case <-poll.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-d.l.stopCtx.Done():
			return nil, ErrStopped
		}
		wakeups++
	}
}
