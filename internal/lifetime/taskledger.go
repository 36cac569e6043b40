package lifetime

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/types"
)

// TaskLedger is one node's task-state ledger — the ownership protocol of
// DESIGN.md §12 applied to the task table (§13). The node that submits a
// task (or claims a placed one) owns its lifecycle: every status
// transition, retry bump, and lineage edge is stamped into this in-process
// ledger and the owner's components read their own writes immediately.
// The GCS task table becomes a follower: it learns of transitions through
// batched ModifyTaskStates flushes and serves observability, the stale
// pending sweep, and reconstruction after the owner dies.
//
// Fencing: every owned task carries the owner's transition sequence,
// seeded by the birth or ClaimTask that established the tenure. The store
// applies a delta only when the record's Owner matches and the delta's
// sequence exceeds the record's — so once ownership moves (spill-away
// steal, owner-death transfer re-claiming the task), a dead tenure's
// straggler deltas are consumed without effect rather than clobbering the
// successor's writes.
//
// The embedded ledger flushes as the Tracker's does, one delta per task
// under a token the tasks' MutOps rings record. A task born here reaches
// the table the same way: Birth adopts it with its spec, and a flush
// writes its record (its birth) as a spec-carrying entry of one
// ModifyTaskStates call, ahead of the deltas. That call also gives the
// task's return objects their producer edges and pins its by-reference
// arguments' lineage, so the ledger keeps no pins of its own. Until its
// birth lands, the ledger is the only record of a task: its deltas wait
// for the birth, and so do its returns' locations and, on the tracker's
// timed flushes, the deltas on its returns, since the birth is where a task
// and its results escape this node (Owes). A birth lands when something
// asks — Flush, FlushTask, LandBirths, Manager.RetireDue — or, on a timed
// flush, once it is older than types.BirthBound. A task whose birth was
// never sent, and whose returns were released before anything about them
// left this node, never reaches the table: the next Birth or flush collects
// it at home (SetCollector).
type TaskLedger struct {
	ledger[[]types.TaskStateDelta, types.TaskID]
	ctrl  gcs.API
	tasks map[types.TaskID]*TaskEntry
	// dirty lists the tasks whose birth landed and that had a transition to
	// send since the last flush; an owed birth's transitions wait on the
	// task (TaskEntry.dirty).
	dirty []*TaskEntry
	// oldest and newest end the list of owed births, the tasks born here
	// whose record the table does not hold yet (Birth), oldest first; owed
	// counts them. roots holds the driver roots drawn on this node (Root),
	// each with the highest SubmitIndex of a child admitted as fresh.
	oldest, newest *TaskEntry
	owed           int
	roots          map[types.TaskID]uint64
	// refs, when set (Manager.SetTaskLedger), keeps the deltas on the
	// returns of owed births at home.
	refs *Tracker
	// flushes counts completed flushes of the whole ledger (Flushes).
	flushes atomic.Uint64
	// watched counts the end watchers WatchEnd registered: owner-side Gets
	// that park (lifetime.gets.watched).
	watched *metrics.Counter
	// woken counts the tells to Waits' counts (lifetime.waits.woken).
	woken *metrics.Counter
	// home, when set, announces the returns of the births that land and
	// collects tasks at home (SetCollector).
	home atomic.Pointer[Manager]

	// clock reads the cluster clock (SetClock). mutNs is the instant of the
	// latest mutation, which backlogLocked ages the owed births against.
	clock func() int64
	mutNs int64
}

// TaskEntry is the authoritative record for one task this node owns, which
// only the ledger touches, under its lock, but for the stamps parked in it
// (Park). A task born here has it in its submitter's record (Birth) until it
// outlives the round trip.
type TaskEntry struct {
	id      types.TaskID
	seq     uint64 // owner's transition sequence, > the tenure's claim base
	status  types.TaskStatus
	worker  types.WorkerID
	errMsg  string
	retries int
	// The cluster-clock instants of the birth, phases and last transition.
	bornNs, schedNs, startNs, finishNs, lastNs int64
	// parkedNs holds the instant of each phase parked in the entry (Park),
	// in the order of parkedPhases.
	parkedNs [len(parkedPhases)]int64

	// spec is the lineage record of a task born here while its birth is
	// owed: what the birth writes, and what the reconstructor replays
	// before the table has it. It is the submitter's spec, shared and never
	// written. Once the birth lands the table is the lineage, and a retired
	// record must read as retired.
	spec *types.TaskSpec
	// older and newer link an owed birth into the ledger's list.
	older, newer *TaskEntry
	// birthOp is the token every delivery of the birth carries, 0 until the
	// first.
	birthOp uint64
	// kids is the highest SubmitIndex of a child admitted as fresh.
	kids uint64
	// waiter is the task's first Get watching its end (WatchEnd) and wait
	// the first Wait counting it (WaitEnds), so that neither registers with
	// an allocation; more holds the rest of either kind.
	waiter chan<- types.TaskID
	wait   *EndWait
	more   []watcher
	// park is parkOpen while stamps may park in the entry, and one bit per
	// phase parked and not folded yet (foldLocked). It and parkedNs are
	// plain words read and written through sync/atomic's functions: an
	// entry is copied whole when it moves out of its record (compactLocked).
	park uint32
	// owed marks a birth on the list of owed births; dirty, a transition
	// not sent yet, which waits for the birth while that is owed. fresh
	// marks a task born here with a provably new ID and not run again
	// since: the IDs of its children are new too. inRecord marks an entry
	// in its submitter's record.
	owed, dirty, fresh, inRecord bool
}

// An entry's park word is open from Birth, on a started ledger, until the
// birth lands, the task leaves the ledger or it is adopted anew. The close
// is a swap that folds what it finds, so a parked stamp is either folded by
// the closer, or its compare-and-swap fails and it takes the lock.
const parkOpen uint32 = 1

var parkedPhases = [...]types.TaskStatus{types.TaskQueued, types.TaskScheduled, types.TaskRunning}

// parkedBit is the park word's bit of parkedPhases[i].
func parkedBit(i int) uint32 { return parkOpen << (i + 1) }

// watcher is an end watcher beyond an entry's first of its kind: a Get's
// channel or a Wait's count.
type watcher struct {
	ch   chan<- types.TaskID
	wait *EndWait
}

// heldEntry is an entry moved out of its submitter's record, with the
// lineage it needs, so that the record can go (compactLocked).
type heldEntry struct {
	TaskEntry
	lineage types.TaskSpec
}

// NewTaskLedger creates an empty ledger publishing into ctrl, in
// synchronous mode: every transition flushes inline (per-call behaviour
// for store-level tests). Call SetNode and Start for batched async mode.
// Until SetClock, its stamps read ctrl.NowNs.
func NewTaskLedger(ctrl gcs.API) *TaskLedger {
	l := &TaskLedger{
		ctrl:  ctrl,
		clock: ctrl.NowNs,
		tasks: make(map[types.TaskID]*TaskEntry),
		roots: make(map[types.TaskID]uint64),
	}
	l.init("tasks", l)
	return l
}

// SetCollector gives the held-back returns of tasks born here their two
// fates (DESIGN.md §17, "Held-back locations"). Every birth that lands has
// its resident returns announced in m's store, before the flush takes its
// transitions. Before writing births, a flush offers m the returns of each
// terminal task whose birth it never sent (Manager.collectHome), and Birth
// offers the newest such task before it owes the next one; both do so under
// the ledger's lock, which comes before the tracker's and the store's. A
// task collected at home is dropped as if it had never been. Nil stops both.
func (l *TaskLedger) SetCollector(m *Manager) { l.home.Store(m) }

// Node returns the owner identity this ledger stamps into its tasks.
func (l *TaskLedger) Node() types.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.node
}

// SetClock sets the clock every stamp reads: the node's cluster clock, in
// cluster-epoch nanoseconds, so ledger timestamps line up with
// server-stamped ones without a per-transition RPC. Call it before Start.
func (l *TaskLedger) SetClock(now func() int64) { l.clock = now }

// Adopt registers a task this node owns whose record the table already
// holds. baseSeq is the tenure's fence base: the sequence returned by
// ClaimTask for a placed or stolen task, or 0 for a record written with
// this node as Owner. status is the state the control plane already holds
// (QUEUED after a claim, say) — it is not re-flushed. A task born here
// enters through Birth instead.
func (l *TaskLedger) Adopt(id types.TaskID, baseSeq uint64, status types.TaskStatus) {
	if id.IsNil() {
		return
	}
	l.mu.Lock()
	if t := l.tasks[id]; t == nil || t.seq <= baseSeq {
		nt := &TaskEntry{id: id, seq: baseSeq, status: status}
		if t != nil {
			// A watcher waits for the task, not for its tenure: FailTask
			// re-adopts a task it buries, and its FAILED stamp must wake
			// the Gets and count for the Waits watching the replaced record.
			l.unoweLocked(t, false) // a claim's record is in the table
			nt.waiter, nt.wait, nt.more = t.waiter, t.wait, t.more
			t.waiter, t.wait, t.more, t.dirty = nil, nil, nil, false
		}
		l.tasks[id] = nt
	}
	l.mu.Unlock()
}

// Birth adopts a task born on this node at atNs (ClockNs), whose record the
// table does not hold yet, into e: the ledger owes the table the task's
// birth — its spec, PENDING, this node as Owner — and writes it at the head
// of a flush that asks for it or finds it older than types.BirthBound. e is
// unused room in the caller's record of the task, which holds spec too; nil
// allocates. It reports whether it took the task on (false: this ledger
// already owns it) and whether the task's ID is provably new: its parent is
// a driver root drawn here (Root) or a task born fresh here and in its
// first run, and no child of that parent with this SubmitIndex or a later
// one came before. Only a fresh birth may wait for the flush, and the
// scheduler lets every fresh birth of a task without a job wait, whether
// the task starts, spills or waits (scheduler.Local.record). Any other ID
// may be in the table already — a replay, a retry's children, a fixed
// driver root — and the caller flushes its birth at once (FlushTask), which
// reports whether the table held the record. The ledger keeps spec,
// unwritten, until the birth lands. On a started ledger, the stamps short of
// the end of a task born into e park there (Park).
func (l *TaskLedger) Birth(e *TaskEntry, spec *types.TaskSpec, atNs int64) (adopted, fresh bool) {
	if spec.ID.IsNil() {
		return false, false
	}
	l.mu.Lock()
	if l.dead || l.tasks[spec.ID] != nil {
		l.mu.Unlock()
		return false, false
	}
	if n, ok := l.roots[spec.Parent]; ok && spec.SubmitIndex > n {
		l.roots[spec.Parent], fresh = spec.SubmitIndex, true
	} else if p := l.tasks[spec.Parent]; p != nil && p.fresh && spec.SubmitIndex > p.kids {
		p.kids, fresh = spec.SubmitIndex, true
	}
	// The newest owed birth is most often a round trip that has just ended:
	// collected here, it is one entry, not one of the flush's walk. The
	// tracker hears of it and of the new birth's returns in one call.
	// Without the tracker there is nothing to collect: a return is
	// collected on its tracker state.
	if l.refs != nil {
		var ended []types.ObjectID
		var one, two [1]types.ObjectID
		if t := l.newest; t != nil && t.endedUnsent() {
			ended = t.spec.AppendReturns(one[:0])
		}
		if l.refs.birth(l.home.Load(), ended, spec.AppendReturns(two[:0])) {
			l.dropLocked(l.newest, true)
		}
	}
	t := e
	if t == nil {
		t = new(TaskEntry)
	}
	*t = TaskEntry{id: spec.ID, status: types.TaskPending, spec: spec, bornNs: atNs, fresh: fresh, inRecord: e != nil}
	if e != nil && l.async {
		t.park = parkOpen
	}
	l.tasks[spec.ID] = t
	l.mutNs = atNs
	l.oweLocked(t)
	l.unlock(true)
	return true, fresh
}

// oweLocked appends t to the owed births.
func (l *TaskLedger) oweLocked(t *TaskEntry) {
	t.owed, t.older = true, l.newest
	if l.newest != nil {
		l.newest.newer = t
	} else {
		l.oldest = t
	}
	l.newest = t
	l.owed++
}

// unoweLocked takes t off the owed births, if it is on them: its birth
// landed, or the task left the ledger. It closes t to parked stamps, folding
// what is parked, and the deltas on its returns join the tracker's pending
// ones, unless collected: collection at home took them off the tracker.
func (l *TaskLedger) unoweLocked(t *TaskEntry, collected bool) {
	if !t.owed {
		return
	}
	l.foldLocked(t, true)
	l.relinkLocked(t, nil)
	t.owed, t.older, t.newer = false, nil, nil
	l.owed--
	if l.refs != nil && !collected {
		var one [1]types.ObjectID
		l.refs.unowe(t.spec.AppendReturns(one[:0]))
	}
}

// relinkLocked puts to, a copy of from, in from's place on the list of
// owed births, or takes from off the list if to is nil.
func (l *TaskLedger) relinkLocked(from, to *TaskEntry) {
	prev, next := to, to // what from's neighbours point to instead
	if to == nil {
		prev, next = from.newer, from.older
	}
	if from.older != nil {
		from.older.newer = prev
	} else {
		l.oldest = prev
	}
	if from.newer != nil {
		from.newer.older = next
	} else {
		l.newest = next
	}
}

// Root registers a driver root drawn at random on this node (core.NewClient):
// the tasks it submits have new IDs, so their births may wait for the flush.
func (l *TaskLedger) Root(id types.TaskID) {
	l.mu.Lock()
	if _, ok := l.roots[id]; !ok {
		l.roots[id] = 0
	}
	l.mu.Unlock()
}

// LandBirths writes the owed births now, waiting for a flush in progress,
// if any of ids is among them: once it returns, each of ids born here has
// its record in the table, or a shard refused it and it is parked. It costs
// a lock when none of ids is owed.
func (l *TaskLedger) LandBirths(ids ...types.TaskID) {
	l.mu.Lock()
	owed := false
	for _, id := range ids {
		owed = owed || l.owesLocked(id)
	}
	l.mu.Unlock()
	if owed {
		l.landBirths()
	}
}

// landBirths writes every owed birth now, waiting for a flush in progress.
func (l *TaskLedger) landBirths() {
	l.flushMu.Lock()
	l.bear(false)
	l.flushMu.Unlock()
}

// owesLocked reports whether task's birth is owed.
func (l *TaskLedger) owesLocked(task types.TaskID) bool {
	t := l.tasks[task]
	return t != nil && t.owed
}

// Flushes counts the ledger's completed flushes, timed or not.
func (l *TaskLedger) Flushes() uint64 { return l.flushes.Load() }

// SetMetrics publishes the flush-lag gauges (ledger.SetMetrics), the
// parked Gets (WatchEnd), the tells to Waits (WaitEnds) and the births
// kept at home:
// lifetime.births.owed, how many are owed, and lifetime.births.oldest_ms,
// the age of the oldest.
func (l *TaskLedger) SetMetrics(reg *metrics.Registry) {
	l.ledger.SetMetrics(reg)
	l.watched = reg.Counter("lifetime.gets.watched")
	l.woken = reg.Counter("lifetime.waits.woken")
	reg.GaugeFunc("lifetime.births.owed", func() int64 { n, _ := l.owedBirths(); return int64(n) })
	reg.GaugeFunc("lifetime.births.oldest_ms", func() int64 { _, age := l.owedBirths(); return age.Milliseconds() })
}

// owedBirths reports how many births are owed and the age of the oldest.
func (l *TaskLedger) owedBirths() (int, time.Duration) {
	l.mu.Lock()
	n, oldest := l.owed, l.oldest
	var born int64
	if oldest != nil {
		born = oldest.bornNs
	}
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	return n, time.Duration(l.clock() - born)
}

// Owns reports whether id is in this ledger (terminal records linger until
// their final delta is acked, then fall away).
func (l *TaskLedger) Owns(id types.TaskID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tasks[id] != nil
}

// ClockNs reads the ledger's clock (SetClock) once, so a caller can stamp
// several things from one instant: a submission's birth and QUEUED stamp,
// a dispatch's SCHEDULED stamp and latency, a task's finish before its
// outputs are stored.
func (l *TaskLedger) ClockNs() int64 { return l.clock() }

// Transition stamps a status change into the ledger: pure in-process in
// batched mode, no control-plane round trip. worker and errMsg ride along
// when non-zero. Returns false when the task is not owned here (authority
// moved; the caller's stamp is stale and must not reach the table).
func (l *TaskLedger) Transition(id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string) bool {
	return l.TransitionAt(id, status, worker, errMsg, 0)
}

// TransitionAt is Transition with an explicit cluster-clock instant
// (from ClockNs); atNs <= 0 stamps the current clock.
func (l *TaskLedger) TransitionAt(id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string, atNs int64) bool {
	if atNs <= 0 {
		atNs = l.clock()
	}
	l.mu.Lock()
	t := l.tasks[id]
	if t == nil {
		l.mu.Unlock()
		return false
	}
	l.stampLocked(t, status, worker, errMsg, atNs)
	l.unlock(true)
	return true
}

// Park stamps status, a phase short of the end (QUEUED, SCHEDULED or
// RUNNING), for task id at atNs, as TransitionAt does, but with no lock
// while e is open: e is the entry its submitter's record holds (Birth) and
// the task's birth is owed. The stamp waits in e, its instant beside it,
// until the ledger folds it under its lock, before anything reads or stamps
// the entry. A parked QUEUED drops the later phases an earlier run of the
// same record parked (the evicted-arguments path queues a task again). A
// closed entry, or another, takes the lock. It reports false when the task
// is not owned here.
func (l *TaskLedger) Park(e *TaskEntry, id types.TaskID, status types.TaskStatus, atNs int64) bool {
	if i := slices.Index(parkedPhases[:], status); i >= 0 && e != nil {
		for w := atomic.LoadUint32(&e.park); w&parkOpen != 0; w = atomic.LoadUint32(&e.park) {
			atomic.StoreInt64(&e.parkedNs[i], atNs)
			next := w | parkedBit(i)
			if i == 0 {
				next &^= parkedBit(1) | parkedBit(2)
			}
			if atomic.CompareAndSwapUint32(&e.park, w, next) {
				return true
			}
		}
	}
	return l.TransitionAt(id, status, runner(id, status), "", atNs)
}

// runner is the worker a stamp of status names: the task's ID for RUNNING,
// as worker.Executor names it, none before.
func runner(id types.TaskID, status types.TaskStatus) types.WorkerID {
	if status == types.TaskRunning {
		return types.WorkerID(id)
	}
	return types.NilWorkerID
}

// foldLocked stamps what is parked in t, in phase order (Park); closing, it
// also closes t, so that later stamps take the lock. A fold does not move
// mutNs back.
func (l *TaskLedger) foldLocked(t *TaskEntry, closing bool) {
	var w uint32
	if closing {
		w = atomic.SwapUint32(&t.park, 0)
	} else {
		for w = atomic.LoadUint32(&t.park); w > parkOpen; w = atomic.LoadUint32(&t.park) {
			if atomic.CompareAndSwapUint32(&t.park, w, parkOpen) {
				break
			}
		}
	}
	for i, status := range parkedPhases {
		if w&parkedBit(i) != 0 {
			l.applyLocked(t, status, runner(t.id, status), "", atomic.LoadInt64(&t.parkedNs[i]))
		}
	}
}

// EndOwed stamps the end of task id at atNs, a terminal status, if its
// birth is owed, and reports whether it did: the birth's landing then
// announces the returns the task stored held back here
// (objectstore.Store.PutDeferred), so they must be stored before this
// asks. e is the entry the task's record holds, its entry in the ledger
// while the birth is owed, so the common case is one lock and no lookup; a
// retry's record holds none. On false nothing is stamped: the caller
// announces the returns, then stamps the end (TransitionAt).
func (l *TaskLedger) EndOwed(e *TaskEntry, id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string, atNs int64) bool {
	l.mu.Lock()
	if e == nil || !e.owed {
		e = l.tasks[id]
	}
	if e == nil || !e.owed {
		l.mu.Unlock()
		return false
	}
	l.stampLocked(e, status, worker, errMsg, atNs)
	l.unlock(true)
	return true
}

// TransitionRetry folds the retry bookkeeping into ONE ledger transition:
// the retry count bump and the reset to PENDING land atomically in a
// single sequenced delta, so there is no instant at which a node dying
// mid-retry has burned an attempt without rescheduling the task. When the
// bump exhausts maxRetries the reset is skipped (the caller stamps the
// terminal failure next; the count rides that delta).
// Returns the new count and whether the task should retry, or (-1, false)
// when the task is not owned here, as nothing is once the ledger is
// abandoned: a task its killed node's stop interrupts stores no failure.
func (l *TaskLedger) TransitionRetry(id types.TaskID, maxRetries int) (int, bool) {
	atNs := l.clock()
	l.mu.Lock()
	t := l.tasks[id]
	if t == nil || l.dead {
		l.mu.Unlock()
		return -1, false
	}
	t.retries++
	t.fresh = false // the next run's children may be in the table already
	n := t.retries
	if n > maxRetries {
		l.mu.Unlock()
		return n, false
	}
	l.stampLocked(t, types.TaskPending, types.WorkerID{}, "", atNs)
	l.unlock(true)
	return n, true
}

// Disown drops local authority over id without a terminal transition —
// the task left this node (spill-away, drain eviction, burial by a group
// removal, an observed ownership transfer). Unflushed deltas for it are
// discarded (the fence would consume them anyway) and terminal watchers
// wake so owner-side waiters fall back to the follower table.
func (l *TaskLedger) Disown(id types.TaskID) {
	l.mu.Lock()
	l.dropLocked(l.tasks[id], false)
	l.mu.Unlock()
}

// dropLocked forgets t, if it is still its task's entry; collected, home
// took its returns off the tracker (unoweLocked).
func (l *TaskLedger) dropLocked(t *TaskEntry, collected bool) {
	if t != nil && l.tasks[t.id] == t {
		delete(l.tasks, t.id)
		l.unoweLocked(t, collected)
		t.dirty = false
		l.wakeLocked(t, true)
	}
}

// stampLocked applies one transition under l.mu, after what is parked in t.
func (l *TaskLedger) stampLocked(t *TaskEntry, status types.TaskStatus, worker types.WorkerID, errMsg string, nowNs int64) {
	l.foldLocked(t, false)
	l.applyLocked(t, status, worker, errMsg, nowNs)
}

// applyLocked applies one transition under l.mu: bumps the sequence,
// stamps the per-phase timestamp, marks the task dirty, and wakes terminal
// watchers.
func (l *TaskLedger) applyLocked(t *TaskEntry, status types.TaskStatus, worker types.WorkerID, errMsg string, nowNs int64) {
	t.seq++
	t.status = status
	t.worker = worker
	if errMsg != "" {
		t.errMsg = errMsg
	}
	t.lastNs, l.mutNs = nowNs, max(l.mutNs, nowNs)
	switch status {
	case types.TaskScheduled:
		t.schedNs = nowNs
	case types.TaskRunning:
		t.startNs = nowNs
	case types.TaskFinished, types.TaskLost, types.TaskFailed:
		t.finishNs = nowNs
	}
	if !t.dirty {
		// While the birth is owed, the transition waits for it.
		t.dirty = true
		if !t.owed {
			l.dirty = append(l.dirty, t)
		}
	}
	if status.Terminal() {
		l.wakeLocked(t, false)
	}
}

// wakeLocked ends t's watches, once: it sends t's ID to every Get watching
// it and counts t's end for every Wait; dropped, t left the ledger without
// an end.
func (l *TaskLedger) wakeLocked(t *TaskEntry, dropped bool) {
	if t.waiter != nil {
		tell(t.waiter, t.id)
		t.waiter = nil
	}
	if t.wait != nil {
		l.endLocked(t.wait, dropped)
		t.wait = nil
	}
	for _, w := range t.more {
		if w.wait != nil {
			l.endLocked(w.wait, dropped)
		} else {
			tell(w.ch, t.id)
		}
	}
	t.more = nil
}

// tell sends id on ch without blocking the ledger: a channel without room
// loses the event.
func tell(ch chan<- types.TaskID, id types.TaskID) {
	select {
	case ch <- id:
	default:
	}
}

// watchLocked registers ch for t's end event if t is an entry of this
// ledger and not terminal, and reports whether it did: in the entry's waiter
// slot if that is free, else among the rest.
func (l *TaskLedger) watchLocked(ch chan<- types.TaskID, t *TaskEntry) bool {
	switch {
	case t == nil || t.status.Terminal():
		return false
	case t.waiter == nil:
		t.waiter = ch
	default:
		t.more = append(t.more, watcher{ch: ch})
	}
	return true
}

// Lookup returns the owner's authoritative view of id, shaped as the
// table record the follower will eventually hold; Spec is set while the
// task's birth is owed, when the table does not hold it yet. Owner-side
// readers (driver wait loops, the reconstructor) consult this before the
// table.
func (l *TaskLedger) Lookup(id types.TaskID) (types.TaskState, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tasks[id]
	if t == nil {
		return types.TaskState{}, false
	}
	l.foldLocked(t, false)
	st := types.TaskState{
		Status: t.status, Node: l.node, Worker: t.worker, Error: t.errMsg,
		Retries: t.retries, SubmittedNs: t.bornNs, ScheduledNs: t.schedNs, StartedNs: t.startNs,
		FinishedNs: t.finishNs, LastTransitionNs: t.lastNs,
		Owner: l.node, OwnerSeq: t.seq,
	}
	if t.spec != nil {
		st.Spec = *t.spec
	}
	return st, true
}

// WatchEnd registers ch for id's end event if id is owned here and not
// terminal, and reports whether it did; on false nothing is sent. The event
// is id, sent without blocking once the task reaches a terminal state or
// local authority over it is dropped (Disown: spill-away, drain, burial, an
// observed transfer), so it is a hint to re-check, not a completion; ch
// needs room for it. It is the owner-side Get's ownership check and
// registration under one lock, counted in lifetime.gets.watched. Unwatch
// unregisters it.
func (l *TaskLedger) WatchEnd(ch chan<- types.TaskID, id types.TaskID) bool {
	watching, _ := l.WatchEndOrYield(ch, id, false)
	return watching
}

// WatchEndOrYield is WatchEnd, except that with yield set a task SCHEDULED
// here (handed to an executor that has not started it) is not registered:
// it reports handed instead, so that the Get can yield its processor to
// that executor before it calls WatchEnd.
func (l *TaskLedger) WatchEndOrYield(ch chan<- types.TaskID, id types.TaskID, yield bool) (watching, handed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tasks[id]
	if yield && t != nil {
		l.foldLocked(t, false)
		if t.status == types.TaskScheduled {
			return false, true
		}
	}
	if !l.watchLocked(ch, t) {
		return false, false
	}
	l.watched.Inc()
	return true, false
}

// Watchers counts the Gets and Waits registered for id's end that have not
// fired (test hook: a finished wait leaves none behind).
func (l *TaskLedger) Watchers(id types.TaskID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tasks[id]
	if t == nil {
		return 0
	}
	n := len(t.more)
	if t.waiter != nil {
		n++
	}
	if t.wait != nil {
		n++
	}
	return n
}

// Unwatch drops ch's registration for id's end, if it has not fired.
func (l *TaskLedger) Unwatch(ch chan<- types.TaskID, id types.TaskID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tasks[id]
	switch {
	case t == nil:
	case t.waiter == ch:
		t.waiter = nil
	default:
		if i := slices.IndexFunc(t.more, func(w watcher) bool { return w.ch == ch }); i >= 0 {
			t.more = slices.Delete(t.more, i, i+1)
		}
	}
}

// EndWait is one Wait's count of the ends of the tasks that produce the
// refs it waits on (WaitEnds). The ledger tells C, without blocking, when
// enough of them ended, and at once when one of them leaves the ledger
// without an end; a tell is a hint to re-check, not a completion.
type EndWait struct {
	l *TaskLedger
	c chan struct{}
	// tasks is what WaitEnds listed, for Stop. live counts the listed refs
	// whose task is registered and has not ended; left, the ends still to
	// count before C is told.
	tasks      []types.TaskID
	live, left int
}

// WaitEnds registers one count for the ends of tasks, listed once per
// waited ref, so that a task's weight is its number of waited refs. Under
// one lock it registers every listed task this ledger owns and that has not
// ended, and returns the indexes in tasks of the others, not owned here or
// already terminal. C is told once no more than slack of the registered refs
// are unended, and at least one has ended: slack is the number of the
// waiter's pending refs, registered or not, that may stay pending when it is
// satisfied. A task that leaves the ledger without an end (Disown) tells C
// at once. C is nil if nothing was registered. Stop unregisters what has not
// fired, and the caller leaves tasks as it is until then. Each tell is
// counted in lifetime.waits.woken.
func (l *TaskLedger) WaitEnds(tasks []types.TaskID, slack int) (w *EndWait, gone []int) {
	w = &EndWait{l: l, tasks: tasks}
	return w, w.count(tasks, slack, true)
}

// C is told when enough of the registered tasks ended, or one left.
func (w *EndWait) C() <-chan struct{} { return w.c }

// Rearm counts again, after a tell: tasks are those of w's listed refs the
// waiter still waits on, and slack is as in WaitEnds. It returns the indexes
// in tasks of those w no longer counts, whose tasks ended or left the
// ledger; C is told once no more than slack of the others are unended.
func (w *EndWait) Rearm(tasks []types.TaskID, slack int) (gone []int) {
	return w.count(tasks, slack, false)
}

// count arms w over tasks, registering it on them first if register is set.
func (w *EndWait) count(tasks []types.TaskID, slack int, register bool) (gone []int) {
	l := w.l
	l.mu.Lock()
	defer l.mu.Unlock()
	live := 0
	for i, id := range tasks {
		t := l.tasks[id]
		switch {
		case t == nil || t.status.Terminal() || !register && !t.watchedBy(w):
			gone = append(gone, i)
			continue
		case !register:
		case t.wait == nil:
			t.wait = w
		default:
			t.more = append(t.more, watcher{wait: w})
		}
		live++
	}
	if register && live > 0 {
		w.c, w.live = make(chan struct{}, 1), live
	}
	w.left = max(1, live-slack)
	return gone
}

// Stop unregisters w from the tasks it still watches.
func (w *EndWait) Stop() {
	if w.c == nil {
		return // nothing was registered
	}
	l := w.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range w.tasks {
		if w.live == 0 {
			return
		}
		if t := l.tasks[id]; t != nil {
			w.live -= t.unwatch(w)
		}
	}
}

// endLocked counts the end of one of w's registered refs, or its task's
// departure (dropped), and tells w when it was the last end w waited for,
// or at once on a departure.
func (l *TaskLedger) endLocked(w *EndWait, dropped bool) {
	w.live--
	if w.left--; w.left == 0 || dropped {
		select {
		case w.c <- struct{}{}:
			l.woken.Inc()
		default:
		}
	}
}

// watchedBy reports whether w counts t's end.
func (t *TaskEntry) watchedBy(w *EndWait) bool {
	return t.wait == w || slices.ContainsFunc(t.more, func(m watcher) bool { return m.wait == w })
}

// unwatch drops every registration of w on t and returns how many it
// dropped.
func (t *TaskEntry) unwatch(w *EndWait) int {
	n := 0
	if t.wait == w {
		t.wait, n = nil, 1
	}
	k := len(t.more)
	t.more = slices.DeleteFunc(t.more, func(m watcher) bool { return m.wait == w })
	return n + k - len(t.more)
}

// FlushTask synchronously writes every owed birth — each with its pins —
// then pushes ONE task's dirty delta, if any, ahead of an ownership handoff
// (spill bridge, drain migration): an ID that leaves this node must name a
// record, and so must the producers of its arguments. The handoff invariant
// only concerns the task changing hands, so draining the whole ledger inline
// here would put a full ModifyTaskStates round trip on every spill; a
// spill-heavy submit burst would serialize each task behind every other
// task's batch — the per-task sync write this design exists to remove.
// Falls back to a full Flush when parked batches exist, preserving per-task
// FIFO delivery. A task whose birth did not land keeps its delta for a
// later flush.
//
// It reports whether the table held id's record before this node's birth
// of it: the birth found another record there (the adoption is undone), or
// id is not owned here. That is the duplicate check of a submission whose
// ID may not be new (Birth); a job's task lands its birth here too, since
// admission's usage scan counts the job's records.
//
// It holds flushMu, so it is a barrier: when it returns, a background flush
// that had already taken this task's delta off the dirty set has landed
// too. Callers CAS against the follower table right after (grouped
// dispatch, FailTask, the respill paths) and must not read a state older
// than the ledger's.
func (l *TaskLedger) FlushTask(id types.TaskID) (held bool) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return false
	}
	t := l.tasks[id]
	parked := len(l.retry) > 0
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		held = t == nil || l.tasks[id] != t
		l.mu.Unlock()
	}()
	if parked {
		// A parked batch may hold an older delta for this task; shipping a
		// fresh one around it is exactly the reorder flushMu exists to
		// prevent. Rare (a shard was just down) — take the slow path.
		l.flushLocked(false)
		return
	}
	l.bear(false)
	l.mu.Lock()
	if l.dead || l.owesLocked(id) {
		l.mu.Unlock()
		return
	}
	var deltas []types.TaskStateDelta
	if t := l.tasks[id]; t != nil && t.dirty {
		deltas = []types.TaskStateDelta{l.deltaLocked(t)}
		t.dirty = false
	}
	node := l.node
	l.mu.Unlock()
	if len(deltas) > 0 {
		l.deliver(node, deltas)
	}
	return
}

// bear writes the owed births — on a timed flush only those older than
// types.BirthBound or sent before — each under the token of its first
// delivery, so a redelivery finds its own record and the pins it wrote
// count once; the caller holds flushMu. First it collects at home what it can
// (SetCollector): a birth it drops there is never written. A birth the
// table did not take stays owed, unless the table holds a record it did
// not write: then another submission of the ID came first, and the
// adoption is undone. Last, with the ledger unlocked, it announces the
// resident returns of every birth that landed. Reports whether nothing it
// sent stays owed.
func (l *TaskLedger) bear(timed bool) bool {
	l.mu.Lock()
	if l.dead || l.oldest == nil {
		l.mu.Unlock()
		return true
	}
	var young int64 // born after this: kept at home by a timed flush
	if timed {
		young = l.clock() - types.BirthBound.Nanoseconds()
	}
	home := l.home.Load()
	l.settleOwedLocked(home)
	var batches []batch[[]types.TaskStateDelta]
	op := uint64(0)
	for t := l.oldest; t != nil; t = t.newer {
		if timed && t.birthOp == 0 && t.bornNs > young {
			continue
		}
		if t.birthOp == 0 {
			if op == 0 {
				op = newRefToken()
			}
			t.birthOp = op
		}
		i := 0
		for i < len(batches) && batches[i].op != t.birthOp {
			i++
		}
		if i == len(batches) {
			batches = append(batches, batch[[]types.TaskStateDelta]{op: t.birthOp, deltas: make([]types.TaskStateDelta, 0, l.owed)})
		}
		batches[i].deltas = append(batches[i].deltas, types.TaskStateDelta{
			ID: t.id, Owner: l.node, Status: types.TaskPending, Node: l.node,
			SubmittedNs: t.bornNs, LastTransitionNs: t.bornNs, Spec: t.spec,
		})
	}
	node := l.node
	l.mu.Unlock()

	// refused maps each birth the table did not take to whether the record
	// there is another's.
	var refused map[types.TaskID]bool
	for _, b := range batches {
		for _, id := range l.ctrl.ModifyTaskStates(node, b.deltas, b.op) {
			if refused == nil {
				refused = make(map[types.TaskID]bool)
			}
			st, ok := l.ctrl.GetTask(id)
			refused[id] = ok && !st.MutOps.Seen(b.op)
		}
	}
	l.mu.Lock()
	owed := false
	var returns []types.ObjectID
	for _, b := range batches {
		for _, d := range b.deltas {
			t := l.tasks[d.ID]
			if t == nil || !t.owed || t.birthOp != b.op {
				continue // adopted anew or dropped meanwhile
			}
			if other, ok := refused[d.ID]; ok {
				if other {
					l.dropLocked(t, false)
				} else {
					owed = true
				}
				continue
			}
			l.unoweLocked(t, false)
			if t.dirty {
				l.dirty = append(l.dirty, t)
			}
			returns = t.spec.AppendReturns(returns)
			t.spec = nil
		}
	}
	l.mu.Unlock()
	// A return stored after this is announced by its Put (Owes): the Put
	// stores, then asks, so one side or the other sees both facts.
	if home != nil && len(returns) > 0 {
		home.store.Announce(returns...)
	}
	return !owed
}

// settleOwedLocked walks the owed births for the terminal ones. One that
// home collects is gone (collectLocked); any other has outlived its round
// trip: its entry moves out of its submitter's record (compactLocked). Birth
// collects the newest owed birth as well, so on a serial stream of round
// trips the walk finds what ended after its Get returned, and little else.
func (l *TaskLedger) settleOwedLocked(home *Manager) {
	for t := l.oldest; t != nil; {
		next := t.newer
		if t.status.Terminal() && !l.collectLocked(t, home) && t.inRecord {
			l.compactLocked(t)
		}
		t = next
	}
}

// collectLocked drops t, an owed birth, and reports true if it ended, its
// birth was never sent, and home (the collector, if set) takes its returns
// (Manager.collectHome): nothing about it ever left this node, and nothing
// here needs it any more.
func (l *TaskLedger) collectLocked(t *TaskEntry, home *Manager) bool {
	var one [1]types.ObjectID
	if !t.endedUnsent() || home == nil || !home.collectHome(t.spec.AppendReturns(one[:0])) {
		return false
	}
	l.dropLocked(t, true)
	return true
}

// endedUnsent reports whether t, an owed birth, ended and its birth was
// never sent: what collection at home asks of a task.
func (t *TaskEntry) endedUnsent() bool { return t.status.Terminal() && t.birthOp == 0 }

// compactLocked moves t, an owed birth in its submitter's record, into a
// heldEntry, in t's place in the map and on the list of owed births: the
// record, with its context and scheduler state, is garbage once its
// executor is done with it.
func (l *TaskLedger) compactLocked(t *TaskEntry) {
	l.foldLocked(t, true) // nothing parks in a copy

	c := &heldEntry{TaskEntry: *t, lineage: *t.spec}
	e := &c.TaskEntry
	e.spec, e.inRecord = &c.lineage, false
	l.tasks[t.id] = e
	l.relinkLocked(t, e)
	*t = TaskEntry{id: t.id}
}

// deltaLocked is the delta that carries t's latest state to the follower
// table.
func (l *TaskLedger) deltaLocked(t *TaskEntry) types.TaskStateDelta {
	return types.TaskStateDelta{
		ID: t.id, Owner: l.node, Seq: t.seq,
		Status: t.status, Node: l.node, Worker: t.worker,
		Error: t.errMsg, Retries: t.retries,
		ScheduledNs: t.schedNs, StartedNs: t.startNs,
		FinishedNs: t.finishNs, LastTransitionNs: t.lastNs,
	}
}

// The payload half of the embedded ledger.

func (l *TaskLedger) send(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	return l.ctrl.ModifyTaskStates(node, deltas, op)
}

// settleLocked returns the deltas a shard did not take, and drops each
// terminal record whose final delta it did take unless a newer transition
// re-dirtied it — that bounds ledger memory to the node's live task set.
func (l *TaskLedger) settleLocked(deltas []types.TaskStateDelta, failed []types.TaskID) (rest []types.TaskStateDelta) {
	var fset map[types.TaskID]bool
	if len(failed) > 0 {
		fset = make(map[types.TaskID]bool, len(failed))
		for _, id := range failed {
			fset[id] = true
		}
	}
	for _, d := range deltas {
		if fset[d.ID] {
			rest = append(rest, d)
		} else if t := l.tasks[d.ID]; t != nil && t.seq == d.Seq && t.status.Terminal() {
			delete(l.tasks, d.ID)
		}
	}
	return rest
}

// fresh delivers the owed births (on a timed flush, those bear writes),
// then the accumulated transitions of the tasks whose birth landed as one
// batch — one delta per task carrying its full latest view, so coalesced
// intermediate states cost nothing. Births go first because everything
// else about a task presumes its record, and a terminal record's removal
// drops the pins its birth wrote; the returns of the births that landed
// are announced before the transitions are taken.
func (l *TaskLedger) fresh(timed bool) bool {
	defer l.flushes.Add(1)
	ok := l.bear(timed)
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return true
	}
	var deltas []types.TaskStateDelta
	if len(l.dirty) > 0 {
		deltas = make([]types.TaskStateDelta, 0, len(l.dirty))
	}
	for _, t := range l.dirty {
		// A task listed twice, or whose transition went out with FlushTask
		// or left with it, is not dirty here.
		if t.dirty {
			deltas = append(deltas, l.deltaLocked(t))
			t.dirty = false
		}
	}
	clear(l.dirty)
	l.dirty = l.dirty[:0]
	node := l.node
	l.mu.Unlock()
	if len(deltas) > 0 {
		ok = l.deliver(node, deltas) && ok
	}
	return ok
}

// backlogLocked counts the transitions and births waiting; due, what a
// timed flush would send now, counts the landed tasks' transitions and the
// births older than types.BirthBound, the latter only once the two
// together could reach the kick. Their age is taken at the latest
// mutation's instant, so the mutation that asks reads no clock.
func (l *TaskLedger) backlogLocked() (entries, due int) {
	entries, due = len(l.dirty)+l.owed, len(l.dirty)
	if entries < flushKickThreshold {
		return entries, due
	}
	young := l.mutNs - types.BirthBound.Nanoseconds()
	for t := l.oldest; t != nil && t.bornNs <= young && due < flushKickThreshold; t = t.newer {
		due++
	}
	return entries, due
}

func (l *TaskLedger) discardLocked() {
	for t := l.oldest; t != nil; t = t.newer {
		t.owed, t.dirty = false, false
	}
	for _, t := range l.dirty {
		t.dirty = false
	}
	l.oldest, l.newest, l.owed = nil, nil, 0
	l.dirty = nil
}
