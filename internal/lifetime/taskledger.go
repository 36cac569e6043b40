package lifetime

import (
	"sync"
	"time"

	"repro/internal/gcs"
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
// seeded by the AddTask/ClaimTask that established the tenure. The store
// applies a delta only when the record's Owner matches and the delta's
// sequence exceeds the record's — so once ownership moves (spill-away
// steal, owner-death transfer re-claiming the task), a dead tenure's
// straggler deltas are consumed without effect rather than clobbering the
// successor's writes.
//
// The embedded ledger flushes as the Tracker's does, one delta per task
// under a token the tasks' MutOps rings record. Lineage edges (return
// object → producing task, EnsureLineage) and pins (by-reference argument
// ← task record, PinLineage) ride the same flusher as batched
// EnsureObjects and PinObjects calls, ahead of the deltas they justify.
type TaskLedger struct {
	ledger[[]types.TaskStateDelta, types.TaskID]
	ctrl    gcs.API
	tasks   map[types.TaskID]*ownedTask
	dirty   map[types.TaskID]struct{}
	ensures map[types.ObjectID]types.TaskID
	// pins holds, per freshly recorded task, the objects its record takes
	// by reference and has yet to pin (PinLineage); pinRetry the pin
	// batches a shard did not take, under their original tokens.
	pins     map[types.TaskID][]types.ObjectID
	pinRetry []batch[map[types.ObjectID]int64]
	watch    map[types.TaskID][]chan<- types.TaskID

	clockOnce  sync.Once
	clockBoot  int64
	clockStart time.Time
}

// ownedTask is the authoritative record for one task this node owns.
type ownedTask struct {
	seq      uint64 // owner's transition sequence, > the tenure's claim base
	status   types.TaskStatus
	worker   types.WorkerID
	errMsg   string
	retries  int
	schedNs  int64
	startNs  int64
	finishNs int64
	lastNs   int64
}

// NewTaskLedger creates an empty ledger publishing into ctrl, in
// synchronous mode: every transition flushes inline (per-call behaviour
// for store-level tests). Call SetNode and Start for batched async mode.
func NewTaskLedger(ctrl gcs.API) *TaskLedger {
	l := &TaskLedger{
		ctrl:    ctrl,
		tasks:   make(map[types.TaskID]*ownedTask),
		dirty:   make(map[types.TaskID]struct{}),
		ensures: make(map[types.ObjectID]types.TaskID),
		pins:    make(map[types.TaskID][]types.ObjectID),
		watch:   make(map[types.TaskID][]chan<- types.TaskID),
	}
	l.init("tasks", l)
	return l
}

// Node returns the owner identity this ledger stamps into its tasks.
func (l *TaskLedger) Node() types.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.node
}

// now returns cluster-epoch nanoseconds: one control-plane NowNs at first
// use plus the local monotonic offset, so ledger timestamps line up with
// server-stamped ones without a per-transition RPC.
func (l *TaskLedger) now() int64 {
	l.clockOnce.Do(func() {
		l.clockBoot = l.ctrl.NowNs()
		l.clockStart = time.Now()
		if l.clockBoot == 0 { // control plane unreachable: local clock
			l.clockBoot = time.Now().UnixNano()
		}
	})
	return l.clockBoot + time.Since(l.clockStart).Nanoseconds()
}

// Adopt registers a task this node owns. baseSeq is the tenure's fence
// base: 0 for a locally-born task (AddTask wrote Owner with OwnerSeq 0),
// or the sequence returned by ClaimTask for a placed task. status is the
// state the control plane already holds synchronously (PENDING after
// AddTask, QUEUED after a claim) — it is not re-flushed.
func (l *TaskLedger) Adopt(id types.TaskID, baseSeq uint64, status types.TaskStatus) {
	if id.IsNil() {
		return
	}
	l.mu.Lock()
	if t := l.tasks[id]; t == nil || t.seq <= baseSeq {
		l.tasks[id] = &ownedTask{seq: baseSeq, status: status, lastNs: 0}
	}
	l.mu.Unlock()
}

// Owns reports whether id is in this ledger (terminal records linger until
// their final delta is acked, then fall away).
func (l *TaskLedger) Owns(id types.TaskID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tasks[id] != nil
}

// ClockNs exposes the ledger's cluster clock (one boot-time NowNs plus the
// local monotonic offset) so callers can capture transition instants —
// the executor stamps a task's finish before storing its outputs.
func (l *TaskLedger) ClockNs() int64 { return l.now() }

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
		atNs = l.now()
	}
	l.mu.Lock()
	t := l.tasks[id]
	if t == nil {
		l.mu.Unlock()
		return false
	}
	l.stampLocked(id, t, status, worker, errMsg, atNs)
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
// when the task is not owned here.
func (l *TaskLedger) TransitionRetry(id types.TaskID, maxRetries int) (int, bool) {
	atNs := l.now()
	l.mu.Lock()
	t := l.tasks[id]
	if t == nil {
		l.mu.Unlock()
		return -1, false
	}
	t.retries++
	n := t.retries
	if n > maxRetries {
		l.mu.Unlock()
		return n, false
	}
	l.stampLocked(id, t, types.TaskPending, types.WorkerID{}, "", atNs)
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
	if l.tasks[id] != nil {
		delete(l.tasks, id)
		delete(l.dirty, id)
		l.wakeLocked(id)
	}
	l.mu.Unlock()
}

// stampLocked applies one transition under l.mu: bumps the sequence,
// stamps the per-phase timestamp, marks the task dirty, and wakes terminal
// watchers.
func (l *TaskLedger) stampLocked(id types.TaskID, t *ownedTask, status types.TaskStatus, worker types.WorkerID, errMsg string, nowNs int64) {
	t.seq++
	t.status = status
	t.worker = worker
	if errMsg != "" {
		t.errMsg = errMsg
	}
	t.lastNs = nowNs
	switch status {
	case types.TaskScheduled:
		t.schedNs = nowNs
	case types.TaskRunning:
		t.startNs = nowNs
	case types.TaskFinished, types.TaskLost, types.TaskFailed:
		t.finishNs = nowNs
	}
	l.dirty[id] = struct{}{}
	if status.Terminal() {
		l.wakeLocked(id)
	}
}

// wakeLocked delivers id to every channel watching it, once. A send never
// blocks the ledger: a channel without room (see Notify) loses the event.
func (l *TaskLedger) wakeLocked(id types.TaskID) {
	for _, ch := range l.watch[id] {
		select {
		case ch <- id:
		default:
		}
	}
	delete(l.watch, id)
}

// EnsureLineage records return-object → producer edges in the ledger.
// They flush as one batched EnsureObjects ahead of the task deltas, and
// callers that hand an edge to another node (spill bridge, gang
// re-placement, drain migration) call Flush first — flush-before-handoff,
// same as refcount borrows.
func (l *TaskLedger) EnsureLineage(producer types.TaskID, returns ...types.ObjectID) {
	l.mu.Lock()
	if !l.dead {
		for _, id := range returns {
			if !id.IsNil() {
				l.ensures[id] = producer
			}
		}
	}
	l.unlock(true)
}

// PinLineage records that task's record — freshly inserted by this node's
// AddTask, and only then — takes args by reference: each arg's record is
// pinned once (types.ObjectInfo.LineagePins) until the task's record is
// removed, so the lineage behind an argument outlives the references to
// it for as long as a replay of task could need it. The pins flush with the
// lineage ensures, ahead of the task's deltas: the table cannot show the
// task terminal — and so removable, its pins dropped — before they landed.
// They may lag AddTask by a flush interval because until the task ends its
// scheduler holds real references to the same objects.
func (l *TaskLedger) PinLineage(task types.TaskID, args ...types.ObjectID) {
	if len(args) == 0 {
		return
	}
	l.mu.Lock()
	if !l.dead {
		l.pins[task] = args
	}
	l.unlock(true)
}

// flushPins delivers the parked pin batches under their original tokens,
// then pins as a fresh batch. Pin deltas commute, so a batch a shard did
// not take does not hold back the others. Caller holds flushMu.
func (l *TaskLedger) flushPins(pins map[types.TaskID][]types.ObjectID) bool {
	l.mu.Lock()
	batches := l.pinRetry
	l.pinRetry = nil
	l.mu.Unlock()
	if len(batches)+len(pins) == 0 {
		return true
	}
	if len(pins) > 0 {
		deltas := make(map[types.ObjectID]int64, len(pins))
		for _, args := range pins {
			for _, id := range args {
				deltas[id]++
			}
		}
		batches = append(batches, batch[map[types.ObjectID]int64]{op: newRefToken(), deltas: deltas})
	}
	var parked []batch[map[types.ObjectID]int64]
	for _, b := range batches {
		if failed := l.ctrl.PinObjects(b.deltas, b.op); len(failed) > 0 {
			parked = append(parked, batch[map[types.ObjectID]int64]{op: b.op, deltas: deltasOf(b.deltas, failed)})
		}
	}
	if len(parked) == 0 {
		return true
	}
	l.mu.Lock()
	if !l.dead {
		l.pinRetry = append(parked, l.pinRetry...)
	}
	l.mu.Unlock()
	return false
}

// Lookup returns the owner's authoritative view of id, shaped as the
// table record the follower will eventually hold. Owner-side readers
// (driver wait loops, the reconstructor) consult this before the table.
func (l *TaskLedger) Lookup(id types.TaskID) (types.TaskState, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tasks[id]
	if t == nil {
		return types.TaskState{}, false
	}
	return types.TaskState{
		Status: t.status, Node: l.node, Worker: t.worker, Error: t.errMsg,
		Retries: t.retries, ScheduledNs: t.schedNs, StartedNs: t.startNs,
		FinishedNs: t.finishNs, LastTransitionNs: t.lastNs,
		Owner: l.node, OwnerSeq: t.seq,
	}, true
}

// Notify registers ch for one event per task in ids: the task's ID is sent
// when it reaches a terminal state or local authority over it is dropped
// (Disown: spill-away, drain, burial, an observed transfer). Tasks already
// terminal or not owned here are sent before Notify returns — "nothing more
// to wait for here, re-check". An event is a hint to re-check, not a
// completion. ch needs room for one event per id, which is also the most it
// will receive; StopNotify unregisters whatever has not fired.
func (l *TaskLedger) Notify(ch chan<- types.TaskID, ids ...types.TaskID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range ids {
		if t := l.tasks[id]; t == nil || t.status.Terminal() {
			select {
			case ch <- id:
			default:
			}
			continue
		}
		l.watch[id] = append(l.watch[id], ch)
	}
}

// StopNotify drops ch's registrations for ids that have not fired.
func (l *TaskLedger) StopNotify(ch chan<- types.TaskID, ids ...types.TaskID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range ids {
		chans := l.watch[id]
		for i, c := range chans {
			if c == ch {
				chans = append(chans[:i], chans[i+1:]...)
				break
			}
		}
		if len(chans) == 0 {
			delete(l.watch, id)
		} else {
			l.watch[id] = chans
		}
	}
}

// FlushTask synchronously pushes ONE task's unflushed state — its lineage
// ensures and pins and its dirty delta, if any — ahead of an ownership handoff
// (spill bridge, drain migration). The handoff invariant only concerns the
// task changing hands, so draining the whole ledger inline here would put
// a full ModifyTaskStates round trip on every spill; a spill-heavy submit
// burst would serialize each task behind every other task's batch — the
// per-task sync write this design exists to remove. Falls back to a full
// Flush when parked batches exist, preserving per-task FIFO delivery.
//
// It holds flushMu, so it is a barrier: when it returns, a background flush
// that had already taken this task's delta off the dirty set has landed
// too. Callers CAS against the follower table right after (grouped
// dispatch, FailTask, the respill paths) and must not read a state older
// than the ledger's.
func (l *TaskLedger) FlushTask(id types.TaskID) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	if len(l.retry) > 0 {
		// A parked batch may hold an older delta for this task; shipping a
		// fresh one around it is exactly the reorder flushMu exists to
		// prevent. Rare (a shard was just down) — take the slow path.
		l.mu.Unlock()
		l.flushLocked()
		return
	}
	var ensures map[types.ObjectID]types.TaskID
	for oid, tid := range l.ensures {
		if tid == id {
			if ensures == nil {
				ensures = make(map[types.ObjectID]types.TaskID)
			}
			ensures[oid] = tid
			delete(l.ensures, oid)
		}
	}
	var pins map[types.TaskID][]types.ObjectID
	if args, ok := l.pins[id]; ok {
		pins = map[types.TaskID][]types.ObjectID{id: args}
		delete(l.pins, id)
	}
	var deltas []types.TaskStateDelta
	if _, dirty := l.dirty[id]; dirty {
		delete(l.dirty, id)
		if t := l.tasks[id]; t != nil {
			deltas = []types.TaskStateDelta{l.deltaLocked(id, t)}
		}
	}
	node := l.node
	l.mu.Unlock()
	l.ensure(ensures)
	l.flushPins(pins)
	if len(deltas) > 0 {
		l.deliver(node, deltas)
	}
}

// ensure delivers lineage edges. Ensure is idempotent, so an edge a shard
// did not take simply waits for the next flush again.
func (l *TaskLedger) ensure(ensures map[types.ObjectID]types.TaskID) bool {
	if len(ensures) == 0 {
		return true
	}
	failed := l.ctrl.EnsureObjects(ensures)
	if len(failed) == 0 {
		return true
	}
	l.mu.Lock()
	if !l.dead {
		for _, id := range failed {
			if _, ok := l.ensures[id]; !ok {
				l.ensures[id] = ensures[id]
			}
		}
	}
	l.mu.Unlock()
	return false
}

// deltaLocked is the delta that carries t's latest state to the follower
// table.
func (l *TaskLedger) deltaLocked(id types.TaskID, t *ownedTask) types.TaskStateDelta {
	return types.TaskStateDelta{
		ID: id, Owner: l.node, Seq: t.seq,
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

// fresh delivers, in this order, the pending lineage ensures, the pins, and
// the accumulated transitions as one batch — one delta per task carrying
// its full latest view, so coalesced intermediate states cost nothing.
// Ensures and pins go first because a FINISHED record whose return objects
// lack a producer would strand the reconstructor, and a terminal record's
// removal drops pins that must have landed. All three are taken at once,
// so every edge stamped before a transition travels ahead of it.
func (l *TaskLedger) fresh() bool {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return true
	}
	var ensures map[types.ObjectID]types.TaskID
	if len(l.ensures) > 0 {
		ensures, l.ensures = l.ensures, make(map[types.ObjectID]types.TaskID)
	}
	var pins map[types.TaskID][]types.ObjectID
	if len(l.pins) > 0 {
		pins, l.pins = l.pins, make(map[types.TaskID][]types.ObjectID)
	}
	var deltas []types.TaskStateDelta
	if len(l.dirty) > 0 {
		deltas = make([]types.TaskStateDelta, 0, len(l.dirty))
		for id := range l.dirty {
			if t := l.tasks[id]; t != nil {
				deltas = append(deltas, l.deltaLocked(id, t))
			}
		}
		l.dirty = make(map[types.TaskID]struct{})
	}
	node := l.node
	l.mu.Unlock()

	ok := l.ensure(ensures)
	ok = l.flushPins(pins) && ok
	if len(deltas) > 0 {
		ok = l.deliver(node, deltas) && ok
	}
	return ok
}

func (l *TaskLedger) backlogLocked() (int, int, int) {
	d, e, p := len(l.dirty), len(l.ensures), len(l.pins)
	return d + e + p, max(d, e, p), len(l.pinRetry)
}

func (l *TaskLedger) discardLocked() {
	l.dirty = make(map[types.TaskID]struct{})
	l.ensures = make(map[types.ObjectID]types.TaskID)
	l.pins = make(map[types.TaskID][]types.ObjectID)
	l.pinRetry = nil
}
