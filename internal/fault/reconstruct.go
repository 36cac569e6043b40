// Package fault implements the transparent fault tolerance of the paper's
// Section 3.2.1 (R6): because the control plane stores the computation
// lineage (every task spec, plus each object's producing task), lost
// objects are reconstructed by replaying the tasks that produced them. A
// return's ID names its producer (types.ObjectID.Producer), so the producer
// of an object whose record lacks the edge is one lookup away, never a
// scan. Deterministic task and object IDs make replay idempotent, and the
// task table's CAS transitions guarantee a single re-executor per task.
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
// in the table only once the ledger's flush wrote its birth.
type TaskLookup interface {
	Lookup(id types.TaskID) (types.TaskState, bool)
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
// The producer is the one the record names, or else the one the ID names
// (types.ObjectID.Producer): the edge trails its task's birth, and a
// snapshot may hold a record without it. The producer's state comes from
// this node's ledger, else from one task-table read. A lost put yields
// ErrNotReconstructable. A put with no record, or a return whose task
// neither the ledger nor the table knows, yields types.ErrReclaimed: it was
// retired, never submitted, or born on another node whose ledger has not
// landed its birth yet, which it does within types.BirthBound. One answer
// is therefore not proof: the caller's resolve loop ends on it only once
// it has read so for types.RetiredAfter.
func (r *Reconstructor) RequestReturn(id types.ObjectID) error {
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
	producer := info.Producer
	if producer.IsNil() {
		producer = id.Producer()
	}
	if producer.IsNil() {
		if info.State == types.ObjectPending {
			return fmt.Errorf("%w: %v", types.ErrReclaimed, id)
		}
		return fmt.Errorf("%w: %v", ErrNotReconstructable, id)
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
		if st, ok = r.Ledger.Lookup(producer); ok {
			switch st.Status {
			case types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning:
				return nil
			case types.TaskFailed:
				return nil
			}
			ok = st.Spec.ID == producer
		}
	}
	if !ok {
		st, ok = r.Ctrl.GetTask(producer)
	}
	if !ok {
		if !r.ctrlReachable() {
			return fmt.Errorf("%w: looking up lineage of %v", ErrControlUnavailable, producer)
		}
		if st, ok = r.Ctrl.GetTask(producer); !ok {
			return fmt.Errorf("%w: %v (lineage record for task %v gone)", types.ErrReclaimed, id, producer)
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
