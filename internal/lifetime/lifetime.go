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
	"crypto/rand"
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// Flush tuning. The interval bounds how stale the GCS's view of the
// cluster count may go (and therefore GC latency); the size kick bounds
// ledger memory on a node churning references faster than the ticker.
const (
	defaultFlushInterval = 2 * time.Millisecond
	flushKickThreshold   = 256
)

// Tracker is one node's reference ledger — the "owner" half of the
// ownership protocol (DESIGN.md §12). held is the authoritative in-process
// count of the references this node's drivers, borrows, and bridges hold;
// pending accumulates the net unflushed delta per object; touched records
// objects retained at all since the last flush, so a retain+release cycle
// that nets to zero still flushes as a delta-0 "touch" (the GCS must learn
// the object was referenced, or it would never become GC-eligible).
//
// Flushes are batched: one control-plane round trip per shard per flush
// covers every delta accumulated in the interval, each batch bound to an
// idempotency token recorded in the touched objects' RefOps rings. A flush
// that cannot reach a shard parks its batch — token and all — on a FIFO
// retry queue; redelivery under the original token makes the
// crash-between-commit-and-ack case safe (the shard recognizes the token
// and skips the re-apply), and FIFO order keeps one object's deltas
// applying in ledger order, which is what keeps the server-side clamp at
// zero from ever manufacturing or leaking a count.
//
// A Tracker built by NewTracker flushes synchronously inside every mutate
// (per-call behaviour, nothing to start or stop). Start switches it to
// batched mode with a background flusher; that is what nodes run.
type Tracker struct {
	ctrl gcs.API

	mu      sync.Mutex
	node    types.NodeID
	held    map[types.ObjectID]int64
	pending map[types.ObjectID]int64
	touched map[types.ObjectID]struct{}
	retry   []refBatch
	async   bool
	// dead latches after Abandon: the ledger belongs to a "crashed" node
	// and must never reach the control plane again, no matter what later
	// teardown code (scheduler Stop, deferred releases) appends to it.
	dead bool

	// flushMu serializes flush RPCs. Two concurrent flushes could deliver
	// one object's deltas out of ledger order, and the server clamps the
	// count at zero — a release applied before the retain it follows would
	// clamp away a decrement and leak the object forever.
	flushMu sync.Mutex

	stop     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	kick     chan struct{}
	// onTick, when set before Start, runs on the flusher after each timed
	// flush: the Manager hangs its retire proposals on this cadence rather
	// than keep a ticker of its own.
	onTick func()
}

// refBatch is one flush that could not be delivered: its deltas and the
// idempotency token the delivery attempt carried (fixed for all retries).
type refBatch struct {
	op     uint64
	deltas map[types.ObjectID]int64
}

// NewTracker creates an empty ledger publishing into ctrl, in synchronous
// mode: every Retain/Release flushes inline. Call SetNode and Start to
// switch to batched async flushing.
func NewTracker(ctrl gcs.API) *Tracker {
	return &Tracker{
		ctrl:    ctrl,
		held:    make(map[types.ObjectID]int64),
		pending: make(map[types.ObjectID]int64),
		touched: make(map[types.ObjectID]struct{}),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
}

// SetNode attributes this ledger's flushes to node in the GCS object
// table's per-holder accounting — what the owner-death sweep reconstructs
// counts from when the node dies. Call before Start.
func (t *Tracker) SetNode(node types.NodeID) {
	t.mu.Lock()
	t.node = node
	t.mu.Unlock()
}

// Start switches the tracker to batched mode and launches the background
// flusher. Mutations stop flushing inline; the flusher drains the ledger
// every flush interval (or sooner when it grows past the kick threshold).
func (t *Tracker) Start() {
	t.mu.Lock()
	if t.async {
		t.mu.Unlock()
		return
	}
	t.async = true
	t.mu.Unlock()
	go t.flusher()
}

// Stop halts the flusher after one final synchronous flush, so a graceful
// shutdown leaves nothing unflushed. Safe to call multiple times and on a
// tracker never started.
func (t *Tracker) Stop() {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.mu.Lock()
		wasAsync := t.async
		t.async = false
		t.mu.Unlock()
		if wasAsync {
			<-t.stopped
		}
		t.Flush()
	})
}

// Abandon halts the flusher WITHOUT flushing, discarding pending deltas
// and the retry queue — the crash-simulation path (Node.Kill). The GCS
// keeps whatever this node already flushed; the owner-death sweep is what
// reconciles that remainder, exactly as it would for a real crash.
func (t *Tracker) Abandon() {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.mu.Lock()
		wasAsync := t.async
		t.async = false
		t.dead = true
		t.pending = make(map[types.ObjectID]int64)
		t.touched = make(map[types.ObjectID]struct{})
		t.retry = nil
		t.mu.Unlock()
		if wasAsync {
			<-t.stopped
		}
	})
}

func (t *Tracker) flusher() {
	defer close(t.stopped)
	tick := time.NewTicker(defaultFlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.Flush()
			if t.onTick != nil {
				t.onTick()
			}
		case <-t.kick:
			t.Flush()
		case <-t.stop:
			return
		}
	}
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
		t.touched[id] = struct{}{}
	}
	grown := len(t.pending) >= flushKickThreshold
	sync := !t.async
	t.mu.Unlock()
	if sync {
		t.Flush()
	} else if grown {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
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
	sync := !t.async && any
	t.mu.Unlock()
	if sync {
		t.Flush()
	}
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
	out := make(map[types.ObjectID]int64, len(t.held))
	for id, n := range t.held {
		out[id] = n
	}
	return out
}

// Unflushed snapshots the net delta per object the GCS has not yet acked:
// pending ledger entries plus every batch parked on the retry queue. The
// chaos suites' conservation checker samples this mid-flight — GCS count
// plus unflushed deltas must eventually equal the held counts.
func (t *Tracker) Unflushed() map[types.ObjectID]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[types.ObjectID]int64, len(t.pending))
	for id, d := range t.pending {
		out[id] = d
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
// no-ops through the held<=0 guard.
func (t *Tracker) Forget(id types.ObjectID) {
	t.mu.Lock()
	delete(t.held, id)
	delete(t.pending, id)
	for _, b := range t.retry {
		delete(b.deltas, id)
	}
	t.mu.Unlock()
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

// Flush pushes the ledger to the control plane: first redelivers any
// parked batches in FIFO order (under their original tokens), then sends
// the accumulated deltas as a fresh batch. Returns true when the ledger
// fully drained — false means a shard was unreachable and the remainder is
// parked for the next flush. Callers needing a happens-before edge (the
// scheduler stamping QUEUED after its borrows, the spill bridge before the
// respill publish) call this inline; the background flusher calls it on
// its interval.
func (t *Tracker) Flush() bool {
	t.flushMu.Lock()
	defer t.flushMu.Unlock()

	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return true // abandoned: a crashed node's ledger never flushes again
	}
	t.mu.Unlock()

	// Redeliver parked batches first: per-object ordering requires older
	// deltas to land before newer ones, and a batch must keep its token so
	// a shard that committed it before crashing dedups the redelivery.
	for {
		t.mu.Lock()
		if len(t.retry) == 0 {
			t.mu.Unlock()
			break
		}
		b := t.retry[0]
		node := t.node
		t.mu.Unlock()
		failed := t.ctrl.ModifyObjectRefCounts(node, b.deltas, b.op)
		t.mu.Lock()
		t.retry = t.retry[1:]
		if len(failed) > 0 {
			t.retry = append([]refBatch{{op: b.op, deltas: deltasOf(b.deltas, failed)}}, t.retry...)
			t.mu.Unlock()
			return false
		}
		t.mu.Unlock()
	}

	t.mu.Lock()
	if len(t.pending) == 0 && len(t.touched) == 0 {
		t.mu.Unlock()
		return true
	}
	deltas := make(map[types.ObjectID]int64, len(t.pending)+len(t.touched))
	for id, d := range t.pending {
		deltas[id] = d
	}
	for id := range t.touched {
		if _, ok := deltas[id]; !ok {
			deltas[id] = 0 // touch: retained and released within one interval
		}
	}
	t.pending = make(map[types.ObjectID]int64)
	t.touched = make(map[types.ObjectID]struct{})
	node := t.node
	t.mu.Unlock()

	op := newRefToken()
	failed := t.ctrl.ModifyObjectRefCounts(node, deltas, op)
	if len(failed) > 0 {
		t.mu.Lock()
		t.retry = append(t.retry, refBatch{op: op, deltas: deltasOf(deltas, failed)})
		t.mu.Unlock()
		return false
	}
	return true
}

// deltasOf is the part of a batch a shard did not take, to park under the
// batch's token.
func deltasOf(deltas map[types.ObjectID]int64, failed []types.ObjectID) map[types.ObjectID]int64 {
	sub := make(map[types.ObjectID]int64, len(failed))
	for _, id := range failed {
		sub[id] = deltas[id]
	}
	return sub
}

// newRefToken returns a random non-zero idempotency token for one flush
// batch.
func newRefToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 1 // degraded but non-zero; collisions only dedup spuriously
	}
	return binary.BigEndian.Uint64(b[:]) | 1
}
