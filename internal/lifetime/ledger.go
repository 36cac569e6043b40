package lifetime

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

// Flush tuning. The interval bounds how stale the GCS's view of an owner's
// ledger may go (and therefore GC latency); the size kick bounds ledger
// memory on a node mutating faster than the ticker.
const (
	defaultFlushInterval = 2 * time.Millisecond
	flushKickThreshold   = 256
)

// ledger is the flush skeleton of the owner-side ledgers (DESIGN.md §12):
// Tracker and TaskLedger embed one and keep only their payload. It owns the
// mode — a ledger flushes inline on every mutation until Start, then in
// batches from a background flusher — the Start/Stop/Abandon lifecycle
// with its dead latch, and the FIFO of batches a shard did not take, each
// redelivered under the idempotency token its first attempt carried.
//
// B is one delivery's payload and K the key a shard reports as not taken.
type ledger[B any, K comparable] struct {
	name string // the ledger= label of the flush-lag gauges
	p    payload[B, K]

	// mu guards these fields and the payload's entries alike.
	mu    sync.Mutex
	node  types.NodeID
	retry []batch[B]
	async bool
	// dead latches after Abandon: the ledger belongs to a "crashed" node
	// and must never reach the control plane again, no matter what later
	// teardown code (scheduler Stop, deferred releases) appends to it.
	dead bool

	// flushMu serializes flushes, which keeps one key's deltas landing in
	// ledger order: a release applied before its retain is clamped away at
	// zero, and a task delta older than the record's is consumed unapplied.
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

// payload is what a ledger carries. Methods named *Locked run under mu.
type payload[B any, K comparable] interface {
	// send makes one delivery attempt of b under token op and returns the
	// keys a shard did not take.
	send(node types.NodeID, b B, op uint64) []K
	// settleLocked returns the part of an attempted b to park under its
	// token — the failed keys' — and books the rest as acked.
	settleLocked(b B, failed []K) B
	// fresh delivers whatever accumulated since the last flush; the caller
	// holds flushMu and the parked batches have all landed.
	fresh() bool
	// backlogLocked counts what waits for the next flush: the entries in
	// all the payload's pending sets, the size of the largest set (what the
	// kick bounds), and the batches it parks outside the shared FIFO.
	backlogLocked() (entries, largest, parked int)
	// discardLocked drops every waiting entry (Abandon).
	discardLocked()
}

// batch is one delivery that did not fully land: what is left of it and the
// idempotency token every attempt carries.
type batch[B any] struct {
	op     uint64
	deltas B
}

func (l *ledger[B, K]) init(name string, p payload[B, K]) {
	l.name, l.p = name, p
	l.stop, l.stopped, l.kick = make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
}

// SetNode attributes this ledger's flushes to node: the holder in the
// object table's per-node accounting, which the owner-death sweep subtracts
// when the node dies, and the Owner the task table's fence matches deltas
// against. Call before Start.
func (l *ledger[B, K]) SetNode(node types.NodeID) {
	l.mu.Lock()
	l.node = node
	l.mu.Unlock()
}

// SetMetrics publishes the ledger's flush lag in reg, labelled by ledger:
// lifetime.ledger.unflushed, the entries waiting for the next flush, and
// lifetime.ledger.parked, the batches waiting for redelivery. Both are read
// under the ledger's mutex at scrape time; mutations pay nothing. No-op on
// a nil registry.
func (l *ledger[B, K]) SetMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("lifetime.ledger.unflushed;ledger="+l.name, func() int64 { n, _ := l.backlog(); return int64(n) })
	reg.GaugeFunc("lifetime.ledger.parked;ledger="+l.name, func() int64 { _, n := l.backlog(); return int64(n) })
}

func (l *ledger[B, K]) backlog() (entries, parked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries, _, parked = l.p.backlogLocked()
	return entries, parked + len(l.retry)
}

// Start switches the ledger to batched mode and launches the background
// flusher: mutations stop flushing inline, and the flusher drains the
// ledger every flush interval, or sooner once it grows past the kick
// threshold.
func (l *ledger[B, K]) Start() {
	l.mu.Lock()
	if l.async {
		l.mu.Unlock()
		return
	}
	l.async = true
	l.mu.Unlock()
	go l.flusher()
}

// Stop halts the flusher after one final synchronous flush, so a graceful
// shutdown leaves nothing unflushed. Safe to call multiple times and on a
// ledger never started.
func (l *ledger[B, K]) Stop() { l.halt(false) }

// Abandon halts the flusher WITHOUT flushing, discarding every waiting
// entry and parked batch — the crash-simulation path (Node.Kill). The
// control plane keeps whatever this node already flushed; the owner-death
// sweep and transfer reconcile the remainder, exactly as for a real crash.
func (l *ledger[B, K]) Abandon() { l.halt(true) }

func (l *ledger[B, K]) halt(abandon bool) {
	l.stopOnce.Do(func() {
		close(l.stop)
		l.mu.Lock()
		wasAsync := l.async
		l.async = false
		if abandon {
			l.dead = true
			l.retry = nil
			l.p.discardLocked()
		}
		l.mu.Unlock()
		if wasAsync {
			<-l.stopped
		}
		if !abandon {
			l.Flush()
		}
	})
}

func (l *ledger[B, K]) flusher() {
	defer close(l.stopped)
	tick := time.NewTicker(defaultFlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			l.Flush()
			if l.onTick != nil {
				l.onTick()
			}
		case <-l.kick:
			l.Flush()
		case <-l.stop:
			return
		}
	}
}

// unlock ends a mutation made under mu by releasing it. A ledger not
// started then flushes inline if the mutation changed anything; a started
// one kicks its flusher once any pending set holds flushKickThreshold
// entries.
func (l *ledger[B, K]) unlock(changed bool) {
	if !l.async {
		l.mu.Unlock()
		if changed {
			l.Flush()
		}
		return
	}
	_, n, _ := l.p.backlogLocked()
	l.mu.Unlock()
	if n >= flushKickThreshold {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// Flush pushes the ledger to the control plane: first the parked batches
// in FIFO order under their original tokens, then everything accumulated
// since the last flush. Returns true when the ledger fully drained; false
// means a shard was unreachable and the remainder is parked for the next
// flush. Callers that need a happens-before edge (the scheduler stamping
// QUEUED after its borrows, the spill bridge before the respill publish)
// call this inline; the background flusher calls it on its interval.
func (l *ledger[B, K]) Flush() bool {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushLocked()
}

// flushLocked is Flush's body; the caller holds flushMu.
func (l *ledger[B, K]) flushLocked() bool {
	// Parked batches go first: one key's older deltas must land before its
	// newer ones, and a batch keeps its token so a shard that committed it
	// before crashing dedups the redelivery. An abandoned ledger — Abandon
	// may land mid-send — never reaches the control plane again.
	l.mu.Lock()
	for !l.dead && len(l.retry) > 0 {
		b, node := l.retry[0], l.node
		l.mu.Unlock()
		failed := l.p.send(node, b.deltas, b.op)
		l.mu.Lock()
		if l.dead {
			break
		}
		// Settle the batch as it stands now, not the one sent: Tracker.Forget
		// may have swapped in a map without a key, which must stay out.
		if rest := l.p.settleLocked(l.retry[0].deltas, failed); len(failed) > 0 {
			l.retry[0].deltas = rest
			l.mu.Unlock()
			return false
		}
		l.retry = l.retry[1:]
	}
	l.mu.Unlock()
	return l.p.fresh() // sends nothing once dead
}

// deliver sends b as a fresh batch under a new token and parks the part a
// shard did not take. The caller holds flushMu.
func (l *ledger[B, K]) deliver(node types.NodeID, b B) bool {
	op := newRefToken()
	failed := l.p.send(node, b, op)
	l.mu.Lock()
	if rest := l.p.settleLocked(b, failed); len(failed) > 0 {
		l.retry = append(l.retry, batch[B]{op: op, deltas: rest})
	}
	l.mu.Unlock()
	return len(failed) == 0
}

// deltasOf is the part of a count-delta batch a shard did not take. A failed
// key the batch no longer holds was forgotten during the send and is skipped.
func deltasOf(deltas map[types.ObjectID]int64, failed []types.ObjectID) map[types.ObjectID]int64 {
	if len(failed) == 0 {
		return nil
	}
	sub := make(map[types.ObjectID]int64, len(failed))
	for _, id := range failed {
		if d, ok := deltas[id]; ok {
			sub[id] = d
		}
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
