// Package fault implements the transparent fault tolerance of the paper's
// Section 3.2.1 (R6): because the control plane stores the computation
// lineage (every task spec, plus each object's producing task), lost
// objects are reconstructed by replaying the tasks that produced them.
// Deterministic task and object IDs make replay idempotent, and the task
// table's CAS transitions guarantee a single re-executor per task.
package fault

import (
	"errors"
	"fmt"

	"repro/internal/gcs"
	"repro/internal/types"
)

// ErrNotReconstructable marks objects with no lineage (driver Puts): they
// have no producing task to replay. Same limitation as the prototype.
var ErrNotReconstructable = errors.New("fault: object has no producing task")

// ErrControlUnavailable marks a reconstruction attempt that failed because
// the control plane (or the shard owning the record) was unreachable — a
// dead GCS incarnation mid-restart, not a missing record. It is retryable:
// callers keep waiting and re-request instead of failing the resolve, so a
// Get in flight across a control-plane failover completes once the shard's
// new incarnation is up.
var ErrControlUnavailable = errors.New("fault: control plane unavailable (retryable)")

// ctrlReachable distinguishes "record absent" from "control plane down"
// when a read comes back empty: implementations exposing a liveness probe
// (the gcs.Sharded transport client) are consulted; a plain in-process
// store is always reachable.
func (r *Reconstructor) ctrlReachable() bool {
	if p, ok := r.Ctrl.(gcs.Pinger); ok {
		return p.Ping()
	}
	return true
}

// TaskLookup is the owner-side view of task state (lifetime.TaskLedger):
// authoritative for tasks this node owns, and fresher than the follower
// table, whose view trails by up to types.BirthBound — a task born here is
// in the table only once the ledger's flush wrote its birth. Flush writes
// every birth it owes.
type TaskLookup interface {
	Lookup(id types.TaskID) (types.TaskState, bool)
	Flush() bool
}

// producerOf finds the task that returns id: hint's record when the caller
// named one — the owner's first, which holds a task born here before the
// table does — and a scan of the table otherwise. A scan that finds nothing
// is repeated once the owner's ledger has flushed, so a producer born here
// whose birth was still on its way is not taken for a retired one.
func (r *Reconstructor) producerOf(id types.ObjectID, hint types.TaskID) (types.TaskState, bool) {
	if !hint.IsNil() {
		if st, ok := r.lookupOwned(hint); ok {
			return st, true
		}
		return r.Ctrl.GetTask(hint)
	}
	st, ok := r.deriveProducer(id)
	if !ok && r.Ledger != nil {
		r.Ledger.Flush()
		st, ok = r.deriveProducer(id)
	}
	return st, ok
}

// lookupOwned is the ledger's view of a task it owns and holds the spec of.
func (r *Reconstructor) lookupOwned(id types.TaskID) (types.TaskState, bool) {
	if r.Ledger == nil {
		return types.TaskState{}, false
	}
	st, ok := r.Ledger.Lookup(id)
	return st, ok && st.Spec.ID == id
}

// Reconstructor replays producing tasks to regenerate lost objects.
type Reconstructor struct {
	Ctrl gcs.API
	// Ledger, when set, is consulted before the follower task table
	// (DESIGN.md §13): a producer this node owns answers health checks
	// in-process, with no control-plane read and no staleness window.
	Ledger TaskLookup
	// Resubmit hands a lineage spec back to a local scheduler, which
	// deduplicates through the task table (scheduler.Local.Submit).
	Resubmit func(spec types.TaskSpec) error
}

// deriveProducer rebuilds a missing object→producer edge from the task
// table. A task's birth writes its spec and, after it, its return objects'
// producer edges (DESIGN.md §13), so a crash (or a control-plane snapshot
// taken) between the two loses only the index, never the lineage — and an
// executing node's location publish can create the object record before
// either. Return-object IDs are
// deterministic (H("ret" ‖ task ‖ index)), so the edge is recomputable
// from the specs. O(tasks × returns) over a table the size of the live
// set, paid only when an object without a copy has no recorded producer —
// a catastrophic failover, or a reader holding a ref to something retired.
func (r *Reconstructor) deriveProducer(id types.ObjectID) (types.TaskState, bool) {
	if !r.ctrlReachable() {
		return types.TaskState{}, false // a partial scan proves nothing
	}
	tasks, _ := r.Ctrl.ScanTasks(gcs.TaskFilter{})
	for _, st := range tasks {
		for i := 0; i < st.Spec.NumReturns; i++ {
			if st.Spec.ReturnID(i) == id {
				return st, true
			}
		}
	}
	return types.TaskState{}, false
}

// RequestReturn triggers reconstruction of id if it is lost, or if it is
// pending but its producer is stranded (recorded on a node that has died —
// which covers both tasks that were running there and tasks that sat in its
// queues without ever being dispatched). It returns nil when the object is
// ready, healthily being produced, or a replay was initiated; the caller
// continues waiting for the object-ready notification. Transitive
// reconstruction of the replayed task's own lost inputs happens naturally:
// the scheduler's resolve loop calls back into RequestReturn for each
// unavailable dependency it encounters.
//
// A caller that knows id is a return of task (a future carries its
// producer) passes it: where the record has no producer edge, the one
// task-table read replaces the scan that derives it. Others pass
// types.NilTaskID.
//
// An object with no lineage anywhere — no producer edge on its record (or
// no record), no task in the table that returns it, and none in this
// node's ledger after it flushed — yields types.ErrReclaimed: a return
// whose task neither its owner nor the table knows was retired, was never
// submitted, or was born on another node whose ledger has not landed its
// birth yet, which it does within types.BirthBound. One answer is therefore
// not proof: the caller's resolve loop ends on it only once it has read so
// for types.RetiredAfter, and asks only after a first poll, so the flush
// interval by which an edge may trail its task costs no scan.
func (r *Reconstructor) RequestReturn(id types.ObjectID, task types.TaskID) error {
	info, ok := r.Ctrl.GetObject(id)
	if !ok {
		if !r.ctrlReachable() {
			return fmt.Errorf("%w: looking up object %v", ErrControlUnavailable, id)
		}
		// The probe can race a shard recovery: the read may have given up
		// while the shard was down and the ping succeeded against its new
		// incarnation. One re-read settles record-absent vs unlucky timing.
		if info, ok = r.Ctrl.GetObject(id); !ok {
			info = types.ObjectInfo{ID: id, State: types.ObjectPending}
		}
	}
	if info.State == types.ObjectReady {
		return nil
	}
	if info.Producer.IsNil() {
		// No lineage edge. Transient under owner-based lineage (DESIGN.md
		// §13) — the record was created by a refcount flush and the owner's
		// birth of its producer is still in flight — unless no task returns
		// the object at all: then it is a Put whose copies are gone, or, if
		// it never had a copy, something retired.
		st, found := r.producerOf(id, task)
		if !found {
			if !r.ctrlReachable() {
				return fmt.Errorf("%w: deriving the producer of %v", ErrControlUnavailable, id)
			}
			if info.State == types.ObjectPending {
				return fmt.Errorf("%w: %v", types.ErrReclaimed, id)
			}
			return fmt.Errorf("%w: %v", ErrNotReconstructable, id)
		}
		r.Ctrl.EnsureObjects(map[types.ObjectID]types.TaskID{id: st.Spec.ID}) // heal: next resolve is O(1) again
		info.Producer = st.Spec.ID
	}
	// Owner-ledger fast path: if this node owns the producer, its liveness
	// is known in-process. A live owned producer is by definition healthy
	// (it is admitted on THIS node, which is alive), and an owned terminal
	// failure already stored error payloads under the returns — neither
	// needs a table read or a replay. An owned task that finished with the
	// object lost replays from the ledger's spec, which the table may not
	// hold yet; a task not owned here falls through to the follower table.
	var st types.TaskState
	ok = false
	if r.Ledger != nil {
		if st, ok = r.Ledger.Lookup(info.Producer); ok {
			switch st.Status {
			case types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning:
				return nil
			case types.TaskFailed:
				return nil
			}
			ok = st.Spec.ID == info.Producer
		}
	}
	if !ok {
		st, ok = r.Ctrl.GetTask(info.Producer)
	}
	if !ok {
		if !r.ctrlReachable() {
			return fmt.Errorf("%w: looking up lineage of %v", ErrControlUnavailable, info.Producer)
		}
		if st, ok = r.Ctrl.GetTask(info.Producer); !ok {
			return fmt.Errorf("%w: %v (lineage record for task %v gone)", types.ErrReclaimed, id, info.Producer)
		}
	}
	if info.State == types.ObjectPending {
		switch st.Status {
		case types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning:
			if node, ok := r.Ctrl.GetNode(st.Node); ok && node.Alive {
				return nil // healthy in-flight producer: just keep waiting
			}
			// Stranded on a dead or unknown node: fall through and replay.
		case types.TaskFailed:
			// Terminal failure: the executor stored error payloads under
			// the return IDs, so waiters will observe the failure.
			return nil
		}
	}
	r.Ctrl.LogEvent(types.Event{Kind: "reconstruct", Task: st.Spec.ID, Object: id})
	// Submit deduplicates: if another node already won the replay CAS this
	// is a no-op.
	return r.Resubmit(st.Spec)
}
