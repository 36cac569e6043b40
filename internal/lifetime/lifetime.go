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
// interval still flushes, as a delta-0 "touch": the GCS must learn the
// object was referenced, or it would never become GC-eligible.
//
// The embedded ledger flushes: one ModifyObjectRefCounts per interval
// carries every delta, under a token the objects' RefOps rings record, so a
// shard that committed a batch and lost the ack dedups its redelivery.
type Tracker struct {
	ledger[map[types.ObjectID]int64, types.ObjectID]
	ctrl    gcs.API
	held    map[types.ObjectID]int64
	pending map[types.ObjectID]int64
	// sending is the fresh batch being delivered with mu released, as it
	// stands now (nil: none): Forget swaps in a copy without its key, and
	// the delivery settles this one, not the map it sent.
	sending map[types.ObjectID]int64
}

// NewTracker creates an empty ledger publishing into ctrl, in synchronous
// mode: every Retain/Release flushes inline. Call SetNode and Start to
// switch to batched async flushing.
func NewTracker(ctrl gcs.API) *Tracker {
	t := &Tracker{
		ctrl:    ctrl,
		held:    make(map[types.ObjectID]int64),
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
		if id.IsNil() {
			continue
		}
		t.held[id]++
		t.pending[id]++
	}
	t.unlock(true)
}

// Release drops references previously retained through this tracker.
// Releasing a reference the tracker does not hold is a no-op, so one buggy
// caller cannot drive the cluster count negative.
func (t *Tracker) Release(ids ...types.ObjectID) {
	t.mu.Lock()
	any := false
	for _, id := range ids {
		n := t.held[id]
		if n <= 0 {
			continue
		}
		if n == 1 {
			delete(t.held, id)
		} else {
			t.held[id] = n - 1
		}
		t.pending[id]--
		any = true
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
	return t.held[id]
}

// HeldAll snapshots every reference the tracker holds (invariant checks).
func (t *Tracker) HeldAll() map[types.ObjectID]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.held)
}

// Unflushed snapshots the net delta per object the GCS has not yet acked:
// pending ledger entries plus every batch parked on the retry queue. The
// chaos suites' conservation checker samples this mid-flight — GCS count
// plus unflushed deltas must eventually equal the held counts.
func (t *Tracker) Unflushed() map[types.ObjectID]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := maps.Clone(t.pending)
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
	delete(t.held, id)
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
	for id, n := range t.held {
		t.pending[id] -= n
	}
	t.held = make(map[types.ObjectID]int64)
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

func (t *Tracker) fresh() bool {
	t.mu.Lock()
	if t.dead || len(t.pending) == 0 {
		t.mu.Unlock()
		return true
	}
	deltas := t.pending
	t.pending = make(map[types.ObjectID]int64)
	t.sending = deltas
	node := t.node
	t.mu.Unlock()
	return t.deliver(node, deltas)
}

func (t *Tracker) backlogLocked() (int, int, int) { return len(t.pending), len(t.pending), 0 }

func (t *Tracker) discardLocked() { t.pending = make(map[types.ObjectID]int64) }
