package lifetime

import (
	"sync"
	"sync/atomic"
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
// seeded by the birth or ClaimTask that established the tenure. The store
// applies a delta only when the record's Owner matches and the delta's
// sequence exceeds the record's — so once ownership moves (spill-away
// steal, owner-death transfer re-claiming the task), a dead tenure's
// straggler deltas are consumed without effect rather than clobbering the
// successor's writes.
//
// The embedded ledger flushes as the Tracker's does, one delta per task
// under a token the tasks' MutOps rings record. A task born here reaches
// the table the same way: Birth adopts it with its spec, and the next flush
// writes its record (its birth) as a spec-carrying entry of one
// ModifyTaskStates call, ahead of the deltas. That call also gives the
// task's return objects their producer edges and pins its by-reference
// arguments' lineage, so the ledger keeps no pins of its own. Until its
// birth lands, the ledger is the only record of a task, and a task's
// deltas wait for its birth. A task whose birth was never sent, and whose
// returns were released before anything about them left this node, never
// reaches the table: the flush collects it at home (SetCollector).
type TaskLedger struct {
	ledger[[]types.TaskStateDelta, types.TaskID]
	ctrl  gcs.API
	tasks map[types.TaskID]*ownedTask
	dirty map[types.TaskID]struct{}
	watch map[types.TaskID][]chan<- types.TaskID
	// births holds the tasks born here whose record the table does not
	// hold yet (Birth); roots the driver roots drawn on this node (Root),
	// each with the highest SubmitIndex of a child admitted as fresh.
	births map[types.TaskID]*ownedTask
	roots  map[types.TaskID]uint64
	// flushes counts completed flushes of the whole ledger (Flushes).
	flushes atomic.Uint64
	// announce publishes the locations the node's store holds back
	// (SetAnnouncer); home collects a task's returns at home
	// (SetCollector). Each is nil until set; homing is set while both are.
	announce func()
	home     *Manager
	homing   atomic.Bool

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

	// spec is the lineage record of a task born here while its birth is
	// owed: what the birth writes, and what the reconstructor replays
	// before the table has it. Once the birth lands the table is the
	// lineage, and a retired record must read as retired.
	spec   types.TaskSpec
	bornNs int64
	// birthOp is the token every delivery of the birth carries, 0 until the
	// first; owed is set until the birth lands.
	birthOp uint64
	owed    bool
	// fresh marks a task born here with a provably new ID and not run
	// again since: the IDs of its children are new too. kids is the highest
	// SubmitIndex of a child admitted as fresh.
	fresh bool
	kids  uint64
	// waiter is the task's first end watcher (Notify, WatchEnd): an
	// owner-side Get registers without growing the watch map, which holds
	// the later ones.
	waiter chan<- types.TaskID
}

// NewTaskLedger creates an empty ledger publishing into ctrl, in
// synchronous mode: every transition flushes inline (per-call behaviour
// for store-level tests). Call SetNode and Start for batched async mode.
func NewTaskLedger(ctrl gcs.API) *TaskLedger {
	l := &TaskLedger{
		ctrl:   ctrl,
		tasks:  make(map[types.TaskID]*ownedTask),
		dirty:  make(map[types.TaskID]struct{}),
		watch:  make(map[types.TaskID][]chan<- types.TaskID),
		births: make(map[types.TaskID]*ownedTask),
		roots:  make(map[types.TaskID]uint64),
	}
	l.init("tasks", l)
	return l
}

// SetAnnouncer makes every flush run fn after it has taken the transitions
// it sends and before it sends them: the node passes its store's
// AnnounceDeferred, so a task's FINISHED record never lands ahead of the
// locations of returns it stored before finishing. Safe to call at any
// time; nil stops the announcements.
func (l *TaskLedger) SetAnnouncer(fn func()) {
	l.mu.Lock()
	l.announce = fn
	l.homing.Store(l.announce != nil && l.home != nil)
	l.mu.Unlock()
}

// SetCollector makes every flush, before it writes births, offer m the
// returns of each task born here that is terminal and whose birth it never
// sent (Manager.CollectHome); a task whose returns m collected at home is
// dropped as if it had never been (DESIGN.md §17, "Collected at home"). A
// flush that announces nothing (no announcer) collects nothing either:
// collection and announcement are the two fates of a held-back location.
// m is called under the ledger's lock, which comes before the tracker's
// and the store's.
func (l *TaskLedger) SetCollector(m *Manager) {
	l.mu.Lock()
	l.home = m
	l.homing.Store(l.announce != nil && l.home != nil)
	l.mu.Unlock()
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
		nt := &ownedTask{seq: baseSeq, status: status}
		if t != nil {
			// A watcher waits for the task, not for its tenure: FailTask
			// re-adopts a task it buries, and its FAILED stamp must wake
			// the Gets waiting on the replaced record.
			nt.waiter = t.waiter
		}
		l.tasks[id] = nt
		delete(l.births, id) // a claim's record is in the table
	}
	l.mu.Unlock()
}

// Birth adopts a task born on this node, whose record the table does not
// hold yet: the ledger owes the table the task's birth — its spec, PENDING,
// this node as Owner — and writes it at the head of its next flush. It
// reports whether it took the task on (false: this ledger already owns it)
// and whether the task's ID is provably new: its parent is a driver root
// drawn here (Root) or a task born fresh here and in its first run, and no
// child of that parent with this SubmitIndex or a later one came before.
// Only a fresh birth may wait for the flush. Any other ID may be in the
// table already — a replay, a retry's children, a fixed driver root — and
// the caller flushes its birth at once (FlushTask), which reports whether
// the table held the record.
func (l *TaskLedger) Birth(spec types.TaskSpec) (adopted, fresh bool) {
	if spec.ID.IsNil() {
		return false, false
	}
	at := l.now()
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
	t := &ownedTask{status: types.TaskPending, spec: spec, bornNs: at, owed: true, fresh: fresh}
	l.tasks[spec.ID] = t
	l.births[spec.ID] = t
	l.unlock(true)
	return true, fresh
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
		owed = owed || l.births[id] != nil
	}
	l.mu.Unlock()
	if owed {
		l.landBirths()
	}
}

// landBirths writes every owed birth now, waiting for a flush in progress.
func (l *TaskLedger) landBirths() {
	l.flushMu.Lock()
	l.bear()
	l.flushMu.Unlock()
}

// Flushes counts the ledger's completed flushes. A birth adopted before one
// flush began has landed (or is parked) once the count moved by two: the
// second flush started after the first ended.
func (l *TaskLedger) Flushes() uint64 { return l.flushes.Load() }

// oldestBirth reports when the oldest birth still owed was adopted.
func (l *TaskLedger) oldestBirth() (time.Time, bool) {
	l.mu.Lock()
	oldest := int64(0)
	for _, t := range l.births {
		if oldest == 0 || t.bornNs < oldest {
			oldest = t.bornNs
		}
	}
	l.mu.Unlock()
	if oldest == 0 {
		return time.Time{}, false
	}
	return time.Now().Add(-time.Duration(l.now() - oldest)), true
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
	t.fresh = false // the next run's children may be in the table already
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
	l.dropLocked(id, l.tasks[id])
	l.mu.Unlock()
}

// dropLocked forgets t, if it is still id's entry.
func (l *TaskLedger) dropLocked(id types.TaskID, t *ownedTask) {
	if t != nil && l.tasks[id] == t {
		delete(l.tasks, id)
		delete(l.dirty, id)
		delete(l.births, id)
		l.wakeLocked(id, t)
	}
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
		l.wakeLocked(id, t)
	}
}

// wakeLocked delivers id to every channel watching it, once: t's waiter
// and those in the watch map.
func (l *TaskLedger) wakeLocked(id types.TaskID, t *ownedTask) {
	if t.waiter != nil {
		tell(t.waiter, id)
		t.waiter = nil
	}
	for _, ch := range l.watch[id] {
		tell(ch, id)
	}
	delete(l.watch, id)
}

// tell sends id on ch without blocking the ledger: a channel without room
// (see Notify) loses the event.
func tell(ch chan<- types.TaskID, id types.TaskID) {
	select {
	case ch <- id:
	default:
	}
}

// watchLocked registers ch for id's end event if id is owned here and not
// terminal, and reports whether it did: in the record's waiter slot if that
// is free, else in the watch map.
func (l *TaskLedger) watchLocked(ch chan<- types.TaskID, id types.TaskID) bool {
	t := l.tasks[id]
	switch {
	case t == nil || t.status.Terminal():
		return false
	case t.waiter == nil:
		t.waiter = ch
	default:
		l.watch[id] = append(l.watch[id], ch)
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
	return types.TaskState{
		Spec: t.spec, Status: t.status, Node: l.node, Worker: t.worker, Error: t.errMsg,
		Retries: t.retries, SubmittedNs: t.bornNs, ScheduledNs: t.schedNs, StartedNs: t.startNs,
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
		if !l.watchLocked(ch, id) {
			tell(ch, id)
		}
	}
}

// WatchEnd registers ch for id's end event, as Notify does, if id is owned
// here and not terminal, and reports whether it did; on false nothing is
// sent. It is the owner-side Get's ownership check and registration under
// one lock. StopNotify unregisters it.
func (l *TaskLedger) WatchEnd(ch chan<- types.TaskID, id types.TaskID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watchLocked(ch, id)
}

// Watchers counts the channels registered for id's end event that have not
// fired (test hook: a finished wait leaves none behind).
func (l *TaskLedger) Watchers(id types.TaskID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.watch[id])
	if t := l.tasks[id]; t != nil && t.waiter != nil {
		n++
	}
	return n
}

// StopNotify drops ch's registrations for ids that have not fired.
func (l *TaskLedger) StopNotify(ch chan<- types.TaskID, ids ...types.TaskID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range ids {
		if t := l.tasks[id]; t != nil && t.waiter == ch {
			t.waiter = nil
			continue
		}
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
// ID may not be new (Birth).
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
		l.flushLocked()
		return
	}
	l.bear()
	l.mu.Lock()
	if l.dead || l.births[id] != nil {
		l.mu.Unlock()
		return
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
	if len(deltas) > 0 {
		l.deliver(node, deltas)
	}
	return
}

// bear writes the owed births, each under the token of its first delivery,
// so a redelivery finds its own record and the pins it wrote count once;
// the caller holds flushMu. First it collects at home what it can
// (SetCollector): a birth it drops there is never written. A birth the
// table did not take stays owed, unless the table holds a record it did
// not write: then another submission of the ID came first, and the
// adoption is undone. Reports whether nothing stays owed.
func (l *TaskLedger) bear() bool {
	l.mu.Lock()
	if l.dead || len(l.births) == 0 {
		l.mu.Unlock()
		return true
	}
	if l.homing.Load() {
		l.collectLocked()
	}
	var batches []batch[[]types.TaskStateDelta]
	op := uint64(0)
	for id, t := range l.births {
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
			batches = append(batches, batch[[]types.TaskStateDelta]{op: t.birthOp, deltas: make([]types.TaskStateDelta, 0, len(l.births))})
		}
		batches[i].deltas = append(batches[i].deltas, types.TaskStateDelta{
			ID: id, Owner: l.node, Status: types.TaskPending, Node: l.node,
			SubmittedNs: t.bornNs, LastTransitionNs: t.bornNs, Spec: &t.spec,
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
	defer l.mu.Unlock()
	owed := false
	for _, b := range batches {
		for _, d := range b.deltas {
			t := l.births[d.ID]
			if t == nil || t != l.tasks[d.ID] {
				continue // adopted anew or dropped meanwhile
			}
			if other, ok := refused[d.ID]; ok {
				if other {
					l.dropLocked(d.ID, t)
				} else {
					owed = true
				}
				continue
			}
			delete(l.births, d.ID)
			t.owed = false
			t.spec = types.TaskSpec{}
		}
	}
	return !owed
}

// collectLocked drops every task whose birth is owed and was never sent,
// that is terminal, and whose returns the collector took: nothing about it
// ever left this node, and nothing here needs it any more.
func (l *TaskLedger) collectLocked() {
	for id, t := range l.births {
		if t.birthOp == 0 && t.status.Terminal() && l.home.CollectHome(t.spec.CacheReturns()) {
			l.dropLocked(id, t)
		}
	}
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

// fresh delivers the owed births, then the accumulated transitions as one
// batch — one delta per task carrying its full latest view, so coalesced
// intermediate states cost nothing. Births go first because everything
// else about a task presumes its record, and a terminal record's removal
// drops the pins its birth wrote; the deltas of a task whose birth did not
// land stay for a later flush. Between taking the transitions and sending
// them it runs the announcer (SetAnnouncer).
func (l *TaskLedger) fresh() bool {
	defer l.flushes.Add(1)
	ok := l.bear()
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return true
	}
	var deltas []types.TaskStateDelta
	if len(l.dirty) > 0 {
		deltas = make([]types.TaskStateDelta, 0, len(l.dirty))
		for id := range l.dirty {
			if l.births[id] != nil {
				continue
			}
			delete(l.dirty, id)
			if t := l.tasks[id]; t != nil {
				deltas = append(deltas, l.deltaLocked(id, t))
			}
		}
	}
	node, announce := l.node, l.announce
	l.mu.Unlock()

	if announce != nil {
		announce()
	}
	if len(deltas) > 0 {
		ok = l.deliver(node, deltas) && ok
	}
	return ok
}

func (l *TaskLedger) backlogLocked() (int, int) {
	d, b := len(l.dirty), len(l.births)
	return d + b, max(d, b)
}

func (l *TaskLedger) discardLocked() {
	l.births = make(map[types.TaskID]*ownedTask)
	l.dirty = make(map[types.TaskID]struct{})
}
