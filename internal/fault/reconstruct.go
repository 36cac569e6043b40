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
// table, whose view trails by a flush interval.
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

// deriveProducer rebuilds a missing object→producer edge from the task
// table. The admission AddTask is the synchronous, durable half of
// lineage (DESIGN.md §13): every spec is in the table before its task can
// run, while the object record's Producer edge rides the owner's async
// ensure flush — a crash (or a control-plane snapshot taken) inside that
// window loses only the index, never the lineage. Return-object IDs are
// deterministic (H("ret" ‖ task ‖ index)), so the edge is recomputable
// from the specs. O(tasks × returns), paid only when a Lost object has no
// recorded producer — the catastrophic-failover path, not a hot one.
func (r *Reconstructor) deriveProducer(id types.ObjectID) (types.TaskState, bool) {
	for _, st := range r.Ctrl.Tasks() {
		for i := 0; i < st.Spec.NumReturns; i++ {
			if st.Spec.ReturnID(i) == id {
				return st, true
			}
		}
	}
	return types.TaskState{}, false
}

// RequestObject triggers reconstruction of id if it is lost, or if it is
// pending but its producer is stranded (recorded on a node that has died —
// which covers both tasks that were running there and tasks that sat in its
// queues without ever being dispatched). It returns nil when the object is
// ready, healthily being produced, or a replay was initiated; the caller
// continues waiting for the object-ready notification. Transitive
// reconstruction of the replayed task's own lost inputs happens naturally:
// the scheduler's dependency resolver calls back into RequestObject for
// each unavailable dependency it encounters.
func (r *Reconstructor) RequestObject(id types.ObjectID) error {
	info, ok := r.Ctrl.GetObject(id)
	if !ok {
		if !r.ctrlReachable() {
			return fmt.Errorf("%w: looking up object %v", ErrControlUnavailable, id)
		}
		// The probe can race a shard recovery: the read may have given up
		// while the shard was down and the ping succeeded against its new
		// incarnation. One re-read settles record-absent vs unlucky timing.
		if info, ok = r.Ctrl.GetObject(id); !ok {
			return fmt.Errorf("fault: object %v unknown to control plane", id)
		}
	}
	if info.State == types.ObjectReady {
		return nil
	}
	if info.Producer.IsNil() {
		// Pending with no lineage edge is transient under owner-based
		// lineage (DESIGN.md §13): the record was created by a refcount
		// flush and the owner's EnsureObjects delta is still in flight — a
		// genuinely producerless object (a Put) is born Ready, never
		// Pending. Keep waiting; only a Lost object with no producer needs
		// the edge derived (or is truly beyond replay).
		if info.State == types.ObjectPending {
			return nil
		}
		st, ok := r.deriveProducer(id)
		if !ok {
			return fmt.Errorf("%w: %v", ErrNotReconstructable, id)
		}
		r.Ctrl.EnsureObject(id, st.Spec.ID) // heal: next resolve is O(1) again
		info.Producer = st.Spec.ID
	}
	// Owner-ledger fast path: if this node owns the producer, its liveness
	// is known in-process. A live owned producer is by definition healthy
	// (it is admitted on THIS node, which is alive), and an owned terminal
	// failure already stored error payloads under the returns — neither
	// needs a table read or a replay. Anything else (owned-but-finished
	// with the object lost, or not owned at all) falls through to the
	// follower table, which holds the spec replay needs.
	if r.Ledger != nil {
		if st, owned := r.Ledger.Lookup(info.Producer); owned {
			switch st.Status {
			case types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning:
				return nil
			case types.TaskFailed:
				return nil
			}
		}
	}
	st, ok := r.Ctrl.GetTask(info.Producer)
	if !ok {
		if !r.ctrlReachable() {
			return fmt.Errorf("%w: looking up lineage of %v", ErrControlUnavailable, info.Producer)
		}
		if st, ok = r.Ctrl.GetTask(info.Producer); !ok {
			return fmt.Errorf("fault: lineage record for task %v missing", info.Producer)
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
