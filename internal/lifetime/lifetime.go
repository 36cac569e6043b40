// Package lifetime is the object lifetime subsystem: it decides how long
// the bytes behind a future stay alive and where they live. Three
// cooperating pieces extend the paper's object store (Figure 3) toward
// production scale:
//
//   - Tracker: ownership-based distributed reference counting (DESIGN.md
//     §12). Future creation (Submit/Put) and task-argument borrows retain
//     objects; explicit releases drop them. The node holding the reference
//     is the authority for its own share of the count: mutations land in a
//     local ledger and flush to the GCS object table as batched async
//     deltas, so the hot submit/enqueue paths never wait on a control-plane
//     round trip. "Referenced versus garbage" remains a cluster-wide fact,
//     published by the GCS from flushed state.
//   - DiskSpiller: the disk spill tier. Under memory pressure the object
//     store spills cold-but-referenced objects to a per-node directory and
//     restores them transparently on Get, converting ErrStoreFull failures
//     into graceful degradation.
//   - PullManager: the chunked pull protocol. Large objects transfer as
//     bounded-concurrency chunk streams spread across the peers that hold a
//     copy, with a per-peer window for backpressure; small objects still
//     take one round trip.
//
// Manager ties them together on each node: it consumes the control plane's
// GC channel and reclaims local copies (memory and disk) of objects whose
// cluster-wide count has dropped to zero.
package lifetime

import (
	"maps"

	"repro/internal/gcs"
	"repro/internal/types"
)

// Tracker is one node's reference ledger — the "owner" half of the
// ownership protocol (DESIGN.md §12). held is the authoritative in-process
// count of the references this node's drivers, borrows, and bridges hold;
// pending is the net delta per object since the last flush. A key stays in
// pending when its delta nets to zero, so a retain+release cycle inside one
// interval still flushes, as a delta-0 "touch" that makes the object
// GC-eligible in the table — unless the object is a return of a task whose
// birth the task ledger owes: its delta waits at home, in the task's ledger
// entry, where a timed flush leaves it, until the birth lands (then it
// joins pending) or the task is collected at home (DESIGN.md §17), delta
// and all. An explicit Flush sends it all the same.
//
// The embedded ledger flushes: one ModifyObjectRefCounts per interval
// carries every delta, under a token the objects' RefOps rings record, so a
// shard that committed a batch and lost the ack dedups its redelivery.
type Tracker struct {
	ledger[map[types.ObjectID]int64, types.ObjectID]
	ctrl    gcs.API
	held    map[types.ObjectID]ref
	pending map[types.ObjectID]int64
	// tasks, when set (Manager.SetTaskLedger), is the task ledger whose
	// owed births name the objects owed.
	tasks *TaskLedger
	// sending is the fresh batch being delivered with mu released, as it
	// stands now (nil: none): Forget swaps in a copy without its key, and
	// the delivery settles this one, not the map it sent.
	sending map[types.ObjectID]int64
}

// ref is the tracker's state for one object: the n references held here
// and, while the object is a return of a birth the task ledger owes
// (owed), the delta kept at home on it, if one was booked (set: a net-zero
// delta is a touch). A key with neither references nor owed goes.
type ref struct {
	n, home   int64
	owed, set bool
}

// NewTracker creates an empty ledger publishing into ctrl, in synchronous
// mode: every Retain/Release flushes inline. Call SetNode and Start to
// switch to batched async flushing.
func NewTracker(ctrl gcs.API) *Tracker {
	t := &Tracker{
		ctrl:    ctrl,
		held:    make(map[types.ObjectID]ref),
		pending: make(map[types.ObjectID]int64),
	}
	t.init("refs", t)
	return t
}

// Retain records new references in the ledger. In batched mode this is a
// pure in-process append — no control-plane round trip.
func (t *Tracker) Retain(ids ...types.ObjectID) {
	t.mu.Lock()
	for _, id := range ids {
		if !id.IsNil() {
			t.bookLocked(id, 1)
		}
	}
	t.unlock(true)
}

// bookLocked adds d to id's count and books it as a delta on id: at home
// while id is owed, else pending.
func (t *Tracker) bookLocked(id types.ObjectID, d int64) {
	r := t.held[id]
	r.n += d
	if r.owed {
		r.home, r.set = r.home+d, true
	} else {
		t.pending[id] += d
	}
	t.setLocked(id, r)
}

// take empties r's home and returns what it held.
func (r *ref) take() (d int64, set bool) {
	d, set = r.home, r.set
	r.home, r.set = 0, false
	return d, set
}

// setLocked stores id's state, or drops the key when nothing is left in it.
func (t *Tracker) setLocked(id types.ObjectID, r ref) {
	if r.n == 0 && !r.owed {
		delete(t.held, id)
	} else {
		t.held[id] = r
	}
}

// owe keeps the deltas on ids, the returns of a birth the task ledger now
// owes, at home, with any not sent yet; the ledger calls it under its lock.
func (t *Tracker) owe(ids []types.ObjectID) {
	t.mu.Lock()
	for _, id := range ids {
		r := t.held[id]
		r.owed = true
		if d, ok := t.pending[id]; ok {
			delete(t.pending, id)
			r.home, r.set = r.home+d, true
		}
		t.held[id] = r
	}
	t.mu.Unlock()
}

// unowe ends owe for ids, whose birth landed or left the ledger: their
// deltas join pending.
func (t *Tracker) unowe(ids []types.ObjectID) {
	t.mu.Lock()
	for _, id := range ids {
		if r, ok := t.held[id]; ok {
			if d, set := r.take(); set {
				t.pending[id] += d
			}
			r.owed = false
			t.setLocked(id, r)
		}
	}
	t.mu.Unlock()
}

// Release drops references previously retained through this tracker.
// Releasing a reference the tracker does not hold is a no-op, so one buggy
// caller cannot drive the cluster count negative.
func (t *Tracker) Release(ids ...types.ObjectID) {
	t.mu.Lock()
	any := false
	for _, id := range ids {
		if t.held[id].n > 0 {
			t.bookLocked(id, -1)
			any = true
		}
	}
	t.unlock(any)
}

// Held reports how many references to id this tracker currently holds.
// This is the authoritative count for this node's share — consulted
// locally (Manager.Referenced, reclaim guards) ahead of the GCS's
// eventually-consistent view.
func (t *Tracker) Held(id types.ObjectID) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held[id].n
}

// HeldAll snapshots every reference the tracker holds (invariant checks).
func (t *Tracker) HeldAll() map[types.ObjectID]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[types.ObjectID]int64, len(t.held))
	for id, r := range t.held {
		if r.n > 0 {
			out[id] = r.n
		}
	}
	return out
}

// Unflushed snapshots the net delta per object the GCS has not yet acked:
// pending and home entries plus every batch parked on the retry queue. The
// chaos suites' conservation checker samples this mid-flight — GCS count
// plus unflushed deltas must eventually equal the held counts.
func (t *Tracker) Unflushed() map[types.ObjectID]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := maps.Clone(t.pending)
	for id, r := range t.held {
		if r.set {
			out[id] += r.home
		}
	}
	for _, b := range t.retry {
		for id, d := range b.deltas {
			out[id] += d
		}
	}
	return out
}

// Forget voids every local reference to id without emitting releases. The
// job reclaim pass zeroed the object's cluster count by decree (DESIGN.md
// §14), so flushing this node's holds — or replaying their unflushed
// retains — would only fight the force-release. Pending and parked deltas
// for the object are discarded; a later Release of a surviving handle
// no-ops through the held<=0 guard. A parked or in-flight batch's map is
// replaced, never written: a delivery may be sending it with mu released,
// and settles the replacement, so a send that fails parks nothing of id.
func (t *Tracker) Forget(id types.ObjectID) {
	t.mu.Lock()
	r := t.held[id]
	r.take()
	r.n = 0
	t.setLocked(id, r)
	delete(t.pending, id)
	t.sending = without(t.sending, id)
	for i := range t.retry {
		t.retry[i].deltas = without(t.retry[i].deltas, id)
	}
	t.mu.Unlock()
}

// without is deltas less id: deltas itself when it lacks id, else a copy.
func without(deltas map[types.ObjectID]int64, id types.ObjectID) map[types.ObjectID]int64 {
	if _, ok := deltas[id]; !ok {
		return deltas
	}
	deltas = maps.Clone(deltas)
	delete(deltas, id)
	return deltas
}

// ReleaseAll drops every reference the tracker holds (component shutdown)
// and flushes, so surviving nodes can reclaim anything only this node kept
// alive.
func (t *Tracker) ReleaseAll() {
	t.mu.Lock()
	for id, r := range t.held {
		if r.n != 0 {
			t.bookLocked(id, -r.n)
		}
	}
	t.mu.Unlock()
	t.Flush()
}

// The payload half of the embedded ledger.

func (t *Tracker) send(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	return t.ctrl.ModifyObjectRefCounts(node, deltas, op)
}

// settleLocked settles a parked batch as the ledger hands it over, and the
// fresh one as Forget left it: flushes are serialized and fresh runs after
// every redelivery, so sending is set exactly while the fresh batch settles.
func (t *Tracker) settleLocked(deltas map[types.ObjectID]int64, failed []types.ObjectID) map[types.ObjectID]int64 {
	if t.sending != nil {
		deltas, t.sending = t.sending, nil
	}
	return deltasOf(deltas, failed)
}

// fresh sends pending, and on an explicit flush the deltas at home too.
func (t *Tracker) fresh(timed bool) bool {
	led := t.tasks
	if timed {
		led = nil
	}
	if led != nil {
		led.mu.Lock()
	}
	deltas, node := t.batch(led)
	if led != nil {
		led.mu.Unlock()
	}
	if deltas == nil {
		return true
	}
	return t.deliver(node, deltas)
}

// batch takes pending, and the deltas at home on the returns of led's owed
// births, as the batch to send; the caller holds led's lock, which comes
// before mu. A nil led leaves the deltas at home.
func (t *Tracker) batch(led *TaskLedger) (map[types.ObjectID]int64, types.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return nil, t.node
	}
	var deltas map[types.ObjectID]int64
	if len(t.pending) > 0 {
		deltas, t.pending = t.pending, make(map[types.ObjectID]int64)
	}
	var e *TaskEntry
	if led != nil {
		e = led.oldest
	}
	for ; e != nil; e = e.newer {
		for i := range e.spec.NumReturns {
			id := e.spec.ReturnID(i)
			if r := t.held[id]; r.set {
				if deltas == nil {
					deltas = make(map[types.ObjectID]int64)
				}
				deltas[id], _ = r.take()
				t.held[id] = r
			}
		}
	}
	t.sending = deltas
	return deltas, t.node
}

// touchOnlyLocked reports whether id's only state here is a net-zero delta
// at home no batch has sent or parked: nothing here holds it, and nothing
// about it reached the table from this tracker.
func (t *Tracker) touchOnlyLocked(id types.ObjectID) bool {
	if r := t.held[id]; r.n != 0 || !r.owed || !r.set || r.home != 0 {
		return false
	}
	if _, ok := t.pending[id]; ok {
		return false
	}
	if _, ok := t.sending[id]; ok {
		return false
	}
	for _, b := range t.retry {
		if _, ok := b.deltas[id]; ok {
			return false
		}
	}
	return true
}

func (t *Tracker) backlogLocked() (int, int) { return len(t.pending), len(t.pending) }

func (t *Tracker) discardLocked() { t.pending = make(map[types.ObjectID]int64) }
