package scheduler

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/metrics"
	"repro/internal/types"
)

// The dependency table's periods (DESIGN.md §4.2). While rows or spill
// bridges exist, the table sweeps them every pollPeriod: a bridged task's
// record is read once per sweep, an object with no lineage in sight is
// looked at again and probed on every sweep after the first, a lost one
// probed on every sweep, and every row's look is renewed — its watch too,
// which a control-plane failover drops — every strandedPeriod sweeps
// (≤ 200 ms), when a pending object's producer is probed for a stranded
// task, starting one period in, so a healthy producer costs no probe.
// fetchTimeout bounds one pull of the object: a pull cut short starts again
// from its first byte, so the bound must outlast the largest transfer, not
// a poll period.
const (
	pollPeriod     = 10 * time.Millisecond
	strandedPeriod = 20
	fetchTimeout   = 30 * time.Second
)

// localTask is the one record of a task admitted here, from Submit to its
// executor (DESIGN.md §3.1), in one allocation. It is the dependency
// table's entry while the task waits on an argument not yet local or on its
// QUEUED stamp, the runnable queue's once both are done, whichever comes
// last, and what the executor pool hands an executor; it holds the task
// ledger's entry of a task born here (Birth) and the task's context for its
// run. Its spec is read-only from the moment the
// record holds it: the task ledger reads it too while the task's birth is
// owed. demand is the spec's resource demand, resolved once against the
// node's name table (Local.newLocalTask).
type localTask struct {
	spec   types.TaskSpec
	demand demand
	l      *Local
	// pool is the pool instance the task holds its demand from, nil while
	// it holds none (Local.releaseHeld).
	pool *resourcePool
	// waits counts the task's arguments not yet local; queued and slot,
	// the task's place in the table's list: see depTable. The rows a task
	// sits in are among its arguments' (removeLocked).
	waits  int32
	slot   int32
	queued bool
	// enqueuedNs is when the task parked on a missing argument (cluster
	// clock), which the oldest-parked gauge reads, and then when it became
	// runnable: the dispatch-latency histogram's start.
	enqueuedNs int64
	entry      lifetime.TaskEntry
	tc         core.TaskContext
}

// parkedObj is one row of the dependency table: what waits on one object
// not here — the tasks parked on it, Gets and Waits — and what the table
// last learnt of the object. A row holds no goroutine, timer, context or
// subscription: the store's arrival hook lands it, the node's ready feed or
// a look starts its pull, and the sweep looks again and probes.
type parkedObj struct {
	tasks    []*localTask
	watchers []watcher
	look     rowLook
	// sweeps counts the sweeps that found the row with no pull in flight.
	sweeps int
	// pull cancels the row's pull in flight; nil while none is.
	pull context.CancelFunc
	// listed marks the row as listed in the table's probes.
	listed bool
	// absent is when a probe first read the object as reclaimed.
	absent time.Time
}

// watcher is a Get (here: Local.Resolve) or a Wait (Local.Follow) on a
// row, told once on ch, with its ref's index: a Get when the object lands
// here, a Wait when the table learns of a copy anywhere, and both of the
// error that ends the row. A row of Waits alone pulls nothing. No tell
// blocks: ch has room for one tell per ref it watches.
type watcher struct {
	ch   chan<- core.Followed
	i    int
	here bool
}

// idle reports whether nothing waits on the row any more.
func (r *parkedObj) idle() bool { return len(r.tasks)+len(r.watchers) == 0 }

// tell tells the row's watchers err, nil for a copy, and forgets them: all
// of them, or only the Waits for a copy elsewhere.
func (r *parkedObj) tell(err error, all bool) {
	kept := r.watchers[:0]
	for _, w := range r.watchers {
		if w.here && !all {
			kept = append(kept, w)
		} else {
			w.ch <- core.Followed{Index: w.i, Err: err}
		}
	}
	clear(r.watchers[len(kept):])
	r.watchers = kept
}

// rowLook is what the table last learnt of a row's object.
type rowLook uint8

const (
	// lookAgain: no look yet, a pull failed, or the look found no record or
	// no producer edge in it; the next sweep looks again.
	lookAgain rowLook = iota
	// lookPending: the record names a producer, and the control plane sends
	// the object's next location on the node's ready feed; or the producer
	// the ID names is in this node's ledger, and its return lands here
	// through the store's arrival hook.
	lookPending
	// lookLost: the object was ready and every copy is gone.
	lookLost
)

// probeDue reports whether a row's object, just looked at, is worth a probe
// now: a lost one at any look; one with no lineage in sight after the first
// sweep (before it, that is the producer edge trailing its task by a ledger
// flush); a pending one every strandedPeriod sweeps.
func (r *parkedObj) probeDue() bool {
	switch r.look {
	case lookLost:
		return true
	case lookAgain:
		return r.sweeps > 0
	}
	return r.sweeps > 0 && r.sweeps%strandedPeriod == 0
}

// rowRef names one row, so that a caller that dropped the table's lock can
// tell it from a later row on the same object.
type rowRef struct {
	id  types.ObjectID
	row *parkedObj
}

// depTable is the local scheduler's dependency table (DESIGN.md §3.1): the
// tasks admitted here that wait on an argument not yet local or on their
// QUEUED stamp, listed by record (tasks) and by missing object (parked),
// and the Gets and Waits on objects not here, in the same rows.
// Three edges feed it: the store's arrival hook (arrived), the node's one
// object-readiness subscription, and its one goroutine (run), which
// consumes that feed, looks at new rows' objects in one batched
// control-plane call, starts pulls and, only while rows or spill bridges
// exist, sweeps them.
// A task that waits on nothing more goes to Local's runnable queue
// (pushRunnable) under the table's lock, so no other lock holder sees it in
// neither place or in both. The spill bridges (Local.bridgeSpill) are the
// table's too, and the same sweeps release them.
type depTable struct {
	l *Local
	// parks counts tasks parked on an object not yet local
	// (scheduler.tasks.parked).
	parks *metrics.Counter
	// kick wakes run once rows were opened, whose objects fresh lists, or a
	// bridge was made.
	kick chan struct{}
	// beforePark, when set, runs in enqueue between its look at the store
	// and park: a test's window for an argument landing there.
	beforePark func()

	// live counts the open rows and the parks and watches in progress, each
	// raised before its look at the store: a Put whose arrival reads it 0
	// was stored before any such look, which sees the object, so the
	// arrival has no row to land and takes no lock (arrived).
	live atomic.Int64

	mu sync.Mutex
	// tasks holds each task in the table at its record's slot.
	tasks  []*localTask
	parked map[types.ObjectID]*parkedObj
	fresh  []types.ObjectID
	// probes lists the rows due a probe, each once, in the order they came
	// due; probing is set while a goroutine works through them.
	probes  []rowRef
	probing bool
	// bridges holds the borrows each spilled task's bridges took on its
	// arguments, until a sweep reads the task claimed or over.
	bridges map[types.TaskID][]types.ObjectID
}

func newDepTable(l *Local) *depTable {
	d := &depTable{l: l, parks: l.cfg.Metrics.Counter("scheduler.tasks.parked"),
		kick: make(chan struct{}, 1), parked: make(map[types.ObjectID]*parkedObj)}
	if l.cfg.Metrics != nil {
		l.cfg.Metrics.GaugeFunc("scheduler.waiting.objects", func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return int64(len(d.parked))
		})
		l.cfg.Metrics.GaugeFunc("scheduler.parked.oldest_ms", d.oldestMs)
	}
	return d
}

// oldestMs is how long the oldest task parked on a missing object has
// waited, in milliseconds of the ledger's clock.
func (d *depTable) oldestMs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.parked) == 0 {
		return 0
	}
	now := d.l.cfg.Ledger.ClockNs()
	oldest := now
	for _, w := range d.tasks {
		if w.waits > 0 {
			oldest = min(oldest, w.enqueuedNs)
		}
	}
	return (now - oldest) / int64(time.Millisecond)
}

// start opens the node's ready feed and starts run. Local.Start calls it
// once, with run already counted in wg.
func (d *depTable) start() {
	go d.run(d.l.cfg.Ctrl.Subscribe(gcs.TopicNodeReady, d.l.cfg.Node))
}

// run is the table's one goroutine. It hands each message of the node's
// ready feed to readyAt, looks at the objects of the rows park opened, and
// sweeps every pollPeriod while rows or bridges exist.
func (d *depTable) run(sub gcs.Sub) {
	defer d.l.wg.Done()
	defer sub.Close()
	feed := sub.C()
	sweep := time.NewTimer(pollPeriod)
	sweep.Stop()
	armed := false
	for {
		select {
		case msg, ok := <-feed:
			if !ok {
				feed = nil // the control-plane client closed: the sweeps look
				continue
			}
			d.readyAt(msg)
		case <-d.kick:
			d.mu.Lock()
			fresh := d.fresh
			d.fresh = nil
			d.mu.Unlock()
			d.probe(d.look(fresh))
			if !armed {
				sweep.Reset(pollPeriod)
				armed = true
			}
		case <-sweep.C:
			if armed = d.sweep(); armed {
				sweep.Reset(pollPeriod)
			}
		case <-d.l.stopCtx.Done():
			return
		}
	}
}

// park enters t in the table, under each object in missing that is still
// not local, and reports whether it did: not once Stop has run. Stop sets
// its flag before its eviction takes this lock, so a task parked here is
// evicted. t parks at atNs. The objects of the rows it opens go to run to
// be looked at, off the caller's path.
func (d *depTable) park(t *localTask, missing []types.ObjectID, atNs int64) bool {
	d.live.Add(1)
	defer d.live.Add(-1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.l.isStopped() {
		return false
	}
	t.queued, t.waits, t.enqueuedNs = false, 0, atNs
	t.slot, d.tasks = int32(len(d.tasks)), append(d.tasks, t)
	for _, dep := range missing {
		// An argument that landed since enqueue looked found no row to wake.
		// Its arrival is in the store before its hook takes this lock.
		if d.l.cfg.Store.Contains(dep) {
			continue
		}
		t.waits++
		row := d.rowLocked(dep)
		row.tasks = append(row.tasks, t)
	}
	if t.waits > 0 {
		d.parks.Inc()
	}
	return true
}

// rowLocked returns id's row, opening one if there is none: its object
// goes to run to be looked at, off the caller's path.
func (d *depTable) rowLocked(id types.ObjectID) *parkedObj {
	row := d.parked[id]
	if row == nil {
		row = &parkedObj{}
		d.parked[id] = row
		d.live.Add(1)
		d.fresh = append(d.fresh, id)
		d.wake()
	}
	return row
}

// wake kicks run, which arms the sweep if it is not armed.
func (d *depTable) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// bridge holds deps, a spill bridge's borrow on task's arguments, until a
// sweep releases it (sweepBridges). A Stop leaves it held: Node.Shutdown's
// tracker ReleaseAll settles the count.
func (d *depTable) bridge(task types.TaskID, deps []types.ObjectID) {
	d.mu.Lock()
	if d.bridges == nil {
		d.bridges = make(map[types.TaskID][]types.ObjectID)
	}
	d.bridges[task] = append(d.bridges[task], deps...)
	d.mu.Unlock()
	d.wake()
}

// watch registers ch for ids[i], i in which, on their rows: a Get's
// (here) or a Wait's. Each is told at once if its object is here, or, for
// a Wait, being pulled.
func (d *depTable) watch(ids []types.ObjectID, which []int, ch chan<- core.Followed, here bool) {
	d.live.Add(1)
	defer d.live.Add(-1)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, i := range which {
		if row := d.parked[ids[i]]; !here && row != nil && row.pull != nil || d.l.cfg.Store.Contains(ids[i]) {
			ch <- core.Followed{Index: i}
			continue
		}
		row := d.rowLocked(ids[i])
		row.watchers = append(row.watchers, watcher{ch, i, here})
	}
}

// unwatch takes what watch registered for ch, and has not been told, off
// the rows.
func (d *depTable) unwatch(ids []types.ObjectID, which []int, ch chan<- core.Followed) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, i := range which {
		if row := d.parked[ids[i]]; row != nil {
			row.watchers = slices.DeleteFunc(row.watchers, func(w watcher) bool { return w.ch == ch })
			d.dropIdleLocked(ids[i], row)
		}
	}
}

// queue records w's QUEUED stamp at atNs and reports whether that made w
// runnable, from the same instant.
func (d *depTable) queue(w *localTask, atNs int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.holdsLocked(w) {
		// Evicted since park: the evictor settled the task and its borrows.
		return false
	}
	// Stamp this node as the task's current holder. If this node dies with
	// the task still queued, the task table points at a dead node and the
	// owner-death transfer (or any consumer's reconstruction check) will
	// re-own the task (R6); without the stamp, a task queued-but-not-
	// dispatched on a dead node would be invisible. The stamp is made under
	// the table's lock, which every evictor of a task in the table takes, so
	// that no evictor's stamps (FailTask's FAILED, say) can come before it:
	// parked in the task's entry while its birth is owed, it is folded before
	// any other stamp (lifetime.TaskLedger.Park). Else it is an in-process
	// append that rides the next batched flush while the ledger's flusher
	// runs; a ledger never started (unit tests) flushes it inline, under the
	// lock.
	d.l.cfg.Ledger.Park(&w.entry, w.spec.ID, types.TaskQueued, atNs)
	w.queued = true
	return d.readyLocked(w, atNs)
}

// readyLocked moves w from the table to the runnable queue, runnable since
// atNs, if nothing is missing and its QUEUED stamp is in, and reports
// whether it did.
func (d *depTable) readyLocked(w *localTask, atNs int64) bool {
	if w.waits > 0 || !w.queued {
		return false
	}
	d.unlinkLocked(w)
	d.l.pushRunnable(w, atNs)
	return true
}

// holdsLocked reports whether w is in the table.
func (d *depTable) holdsLocked(w *localTask) bool {
	return int(w.slot) < len(d.tasks) && d.tasks[w.slot] == w
}

// unlinkLocked takes w out of the table's list: the last task takes its
// slot.
func (d *depTable) unlinkLocked(w *localTask) {
	last := len(d.tasks) - 1
	d.tasks[w.slot], d.tasks[last].slot = d.tasks[last], w.slot
	d.tasks[last] = nil
	d.tasks = d.tasks[:last]
}

// len reports how many tasks are in the table.
func (d *depTable) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks)
}

// evict takes the tasks pred matches out of the table and every row they
// sit in, and returns them (Local.evict).
func (d *depTable) evict(pred evictPred) (out []types.TaskSpec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.tasks) - 1; i >= 0; i-- { // an unlink moves a visited task
		if w := d.tasks[i]; pred(&w.spec, true) {
			out = append(out, w.spec)
			d.removeLocked(w)
		}
	}
	return out
}

// removeLocked takes w out of the table's list and out of every row it
// sits in: the rows of those of its arguments that have one and list it.
func (d *depTable) removeLocked(w *localTask) {
	d.unlinkLocked(w)
	for _, a := range w.spec.Args {
		if !a.IsRef {
			continue
		}
		row := d.parked[a.Ref]
		if row == nil {
			continue
		}
		if i := slices.Index(row.tasks, w); i >= 0 {
			row.tasks = slices.Delete(row.tasks, i, i+1)
			d.dropIdleLocked(a.Ref, row)
		}
	}
}

// dropIdleLocked drops id's row if nothing waits on it any more.
func (d *depTable) dropIdleLocked(id types.ObjectID, row *parkedObj) {
	if row.idle() {
		d.dropLocked(id, row)
	}
}

// dropLocked deletes id's row and cancels its pull in flight.
func (d *depTable) dropLocked(id types.ObjectID, row *parkedObj) {
	delete(d.parked, id)
	d.live.Add(-1)
	if row.pull != nil {
		row.pull()
	}
}

// landed wakes what waits on obj, which is now local: its Gets and Waits,
// and its tasks, which each wait on one argument fewer; one that waits on
// none with its QUEUED stamp in becomes runnable, and landed reports
// whether one did. The row goes. The store calls it on every arrival
// (arrived), and a pull on finishing.
func (d *depTable) landed(obj types.ObjectID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	row := d.parked[obj]
	if row == nil {
		return false
	}
	d.dropLocked(obj, row)
	row.tell(nil, true)
	now := d.l.cfg.Ledger.ClockNs()
	ready := false
	for _, w := range row.tasks {
		w.waits--
		if d.readyLocked(w, now) {
			ready = true
		}
	}
	return ready
}

// arrived is the store's arrival hook: it lands obj's row on the storing
// goroutine, before the store publishes the object's location — a round
// trip that a pull would otherwise wait out before landing it (E19). The
// dispatch it makes due runs on a goroutine of its own, so no control-plane
// call of the dispatch (a grouped task's claim, a stray's respill) holds up
// that publish. With no row open and no park or watch looking, it takes no
// lock (live).
func (d *depTable) arrived(obj types.ObjectID) {
	if d.live.Load() != 0 && d.landed(obj) {
		go d.l.dispatchReady()
	}
}

// readyAt takes one message of the node's ready feed: a watched object has
// a new copy at a node, which a row waiting on it with no pull in flight
// takes (locatedLocked); the message carries the size a pull needs, so the
// pull reads no record. A copy here has landed its row through the arrival
// hook.
func (d *depTable) readyAt(msg []byte) {
	info, ok := gcs.DecodeNodeReady(msg)
	if !ok || info.Locations[0] == d.l.cfg.Node {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if row := d.parked[info.ID]; row != nil && row.pull == nil {
		d.locatedLocked(info.ID, row, info)
	}
}

// locatedLocked takes a copy of row's object elsewhere, which info
// describes: the row's Waits are told, and the row pulls the object if a
// task or a Get waits for it here, or goes.
func (d *depTable) locatedLocked(id types.ObjectID, row *parkedObj, info types.ObjectInfo) {
	if row.tell(nil, false); row.idle() {
		d.dropLocked(id, row)
		return
	}
	d.pullLocked(row, info)
}

// look asks the control plane about the objects of ids' rows in one call,
// which watches those not ready, and acts on each answer: a ready object is
// taken at once (locatedLocked), a pull even while enqueue's borrow flush is
// in flight (E19), with no read of its record. look returns the rows due a
// probe.
func (d *depTable) look(ids []types.ObjectID) (probes []rowRef) {
	d.mu.Lock()
	ids = slices.DeleteFunc(ids, func(id types.ObjectID) bool {
		row := d.parked[id]
		return row == nil || row.pull != nil
	})
	d.mu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	answers := d.l.cfg.Ctrl.WatchObjects(d.l.cfg.Node, ids)
	for i, a := range answers {
		// A return of a task this node's ledger owns has its lineage here
		// while its birth is still owed to the table.
		if !a.Lineage && !a.Lost && len(a.Locations) == 0 {
			answers[i].Lineage = d.l.cfg.Ledger.Owns(ids[i].Producer())
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, id := range ids {
		row := d.parked[id]
		if row == nil || row.pull != nil {
			continue
		}
		switch a := answers[i]; {
		case len(a.Locations) > 0:
			info := types.ObjectInfo{ID: id, State: types.ObjectReady, Size: a.Size, Locations: a.Locations, SpilledOn: a.SpilledOn}
			d.locatedLocked(id, row, info)
			continue
		case a.Lost:
			row.look = lookLost
		case !a.Lineage:
			row.look = lookAgain
		default:
			row.look = lookPending
		}
		if row.probeDue() {
			probes = append(probes, rowRef{id, row})
		}
	}
	return probes
}

// sweep is the table's periodic pass over the rows with no pull in flight
// and the bridges: it looks again at the objects of lookAgain rows, renews
// every row's look every strandedPeriod sweeps, probes lost objects, and
// releases the bridges whose tasks moved on. It reports whether rows or
// bridges remain.
func (d *depTable) sweep() bool {
	var relook []types.ObjectID
	var probes []rowRef
	d.mu.Lock()
	for id, row := range d.parked {
		if row.pull != nil {
			continue
		}
		row.sweeps++
		switch {
		case row.look == lookAgain || row.sweeps%strandedPeriod == 0:
			relook = append(relook, id)
		case row.look == lookLost:
			probes = append(probes, rowRef{id, row})
		}
	}
	rows := len(d.parked) > 0
	d.mu.Unlock()
	d.probe(append(probes, d.look(relook)...))
	return d.sweepBridges() || rows
}

// sweepBridges reads each bridged task's record once and releases the
// borrows of a task that reached SCHEDULED (the destination's borrow is in
// place before that stamp) or an end, or whose record is gone while the
// control plane answers: the spill landed the record, so a table that no
// longer holds it retired or purged it. Any other bridge is kept for the
// next sweep, and so is every bridge after a read that found the control
// plane silent. It reports whether bridges remain.
func (d *depTable) sweepBridges() bool {
	d.mu.Lock()
	bridges := d.bridges
	d.bridges = nil
	d.mu.Unlock()
	var free []types.ObjectID
	for task, deps := range bridges {
		if st, ok := d.l.cfg.Ctrl.GetTask(task); !ok {
			if p, probes := d.l.cfg.Ctrl.(gcs.Pinger); probes && !p.Ping() {
				break
			}
		} else if st.Status == types.TaskPending || st.Status == types.TaskQueued {
			continue // unclaimed, or claimed and not yet SCHEDULED
		}
		free = append(free, deps...)
		delete(bridges, task)
	}
	if len(free) > 0 {
		d.l.cfg.Refs.Release(free...)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bridges == nil {
		d.bridges = bridges
	} else {
		for task, deps := range bridges { // d.bridges holds those made since the take
			d.bridges[task] = append(d.bridges[task], deps...)
		}
	}
	return len(d.bridges) > 0
}

// pullLocked starts a pull for row of the object info describes, unless the
// node cannot fetch: then the row waits for an arrival.
func (d *depTable) pullLocked(row *parkedObj, info types.ObjectInfo) {
	if d.l.cfg.Fetcher == nil {
		row.look = lookPending
		return
	}
	ctx, cancel := context.WithTimeout(d.l.stopCtx, fetchTimeout)
	row.pull = cancel
	d.l.wg.Add(1)
	go d.pull(ctx, cancel, row, info)
}

// pull is one pull in flight, the only goroutine a row ever holds. The
// object's arrival lands the row; a pull that failed leaves it for the next
// sweep to look at again.
func (d *depTable) pull(ctx context.Context, cancel context.CancelFunc, row *parkedObj, info types.ObjectInfo) {
	defer d.l.wg.Done()
	defer cancel()
	if d.l.cfg.Fetcher.FetchObject(ctx, info) == nil {
		if d.landed(info.ID) {
			d.l.dispatchReady()
		}
		return
	}
	d.mu.Lock()
	if d.parked[info.ID] == row {
		row.pull, row.look = nil, lookAgain
	}
	d.mu.Unlock()
}

// probe lists rows as due a probe, each row once, and runs the
// reconstructor over the list on a goroutine of its own while it is not
// empty: a lost object is reconstructed, a producer stranded on a dead node
// replayed. A row that comes due while a probe runs waits for the probes
// listed ahead of it, not for its next period. Any error but the transient
// fault.ErrControlUnavailable ends the row (fail).
func (d *depTable) probe(rows []rowRef) {
	if len(rows) == 0 || d.l.cfg.Recon == nil {
		return
	}
	d.mu.Lock()
	for _, r := range rows {
		if !r.row.listed {
			r.row.listed = true
			d.probes = append(d.probes, r)
		}
	}
	if d.probing {
		d.mu.Unlock()
		return
	}
	d.probing = true
	d.mu.Unlock()
	d.l.wg.Add(1)
	go func() {
		defer d.l.wg.Done()
		for {
			r, ok := d.nextProbe()
			if !ok {
				return
			}
			switch err := d.l.cfg.Recon(r.id); {
			case err == nil || errors.Is(err, fault.ErrControlUnavailable):
			case errors.Is(err, types.ErrReclaimed):
				d.fail(r, err, types.ReasonReclaimed)
			case errors.Is(err, fault.ErrNotReconstructable):
				d.fail(r, err, types.ReasonLost)
			default:
				d.fail(r, err, "")
			}
		}
	}()
}

// nextProbe takes the first listed row still in the table, or clears
// probing once none is left.
func (d *depTable) nextProbe() (rowRef, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.probes) > 0 {
		r := d.probes[0]
		d.probes = d.probes[1:]
		r.row.listed = false
		if d.parked[r.id] == r.row {
			return r, true
		}
	}
	d.probes, d.probing = nil, false
	return rowRef{}, false
}

// fail ends r's row with err, a probe's: its Gets and Waits are told err,
// and the tasks parked on it fail with reason and the object's ID, or, with
// no reason, stay parked. An object no record says anything can produce
// (types.ErrReclaimed, types.ReasonReclaimed: Get on the failed tasks'
// returns yields core.ErrReclaimed) ends the row only once it has read so
// for types.RetiredAfter, since the birth of a task born on another node
// may trail its ref by types.BirthBound. A lost put ends it at once
// (fault.ErrNotReconstructable, types.ReasonLost).
func (d *depTable) fail(r rowRef, err error, reason string) {
	d.mu.Lock()
	if d.parked[r.id] != r.row {
		d.mu.Unlock()
		return
	}
	if reason == types.ReasonReclaimed {
		if r.row.absent.IsZero() {
			r.row.absent = time.Now()
		}
		if time.Since(r.row.absent) <= types.RetiredAfter {
			d.mu.Unlock()
			return
		}
	}
	r.row.tell(err, true)
	d.dropIdleLocked(r.id, r.row)
	d.mu.Unlock()
	if reason == "" {
		return
	}
	waitsOn := func(spec *types.TaskSpec, parked bool) bool {
		return parked && d.parked[r.id] == r.row &&
			slices.ContainsFunc(r.row.tasks, func(w *localTask) bool { return &w.spec == spec })
	}
	d.l.settle(d.l.evict(waitsOn, true), func(spec types.TaskSpec) {
		d.l.FailTask(spec, reason+r.id.String())
	})
}
