package fault

import (
	"errors"
	"testing"

	"repro/internal/gcs"
	"repro/internal/types"
)

func TestRequestObjectReadyIsNoop(t *testing.T) {
	ctrl := gcs.NewStore(2)
	task := types.DeriveTaskID(types.NilTaskID, 1)
	obj := types.ObjectIDForReturn(task, 0)
	ctrl.EnsureObject(obj, task)
	ctrl.AddObjectLocation(obj, types.NodeID(types.DeriveTaskID(types.NilTaskID, 100)), 8)

	called := false
	r := &Reconstructor{Ctrl: ctrl, Resubmit: func(spec types.TaskSpec) error {
		called = true
		return nil
	}}
	if err := r.RequestReturn(obj, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("resubmitted producer of a ready object")
	}
}

func TestRequestObjectReplaysProducer(t *testing.T) {
	ctrl := gcs.NewStore(2)
	spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, 2), Function: "f", NumReturns: 1}
	ctrl.AddTask(types.TaskState{Spec: spec, Status: types.TaskFinished})
	obj := spec.ReturnID(0)
	node := types.NodeID(types.DeriveTaskID(types.NilTaskID, 101))
	ctrl.EnsureObject(obj, spec.ID)
	ctrl.AddObjectLocation(obj, node, 8)
	ctrl.RemoveObjectLocation(obj, node) // sole copy gone -> LOST

	var resubmitted *types.TaskSpec
	r := &Reconstructor{Ctrl: ctrl, Resubmit: func(s types.TaskSpec) error {
		resubmitted = &s
		return nil
	}}
	if err := r.RequestReturn(obj, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if resubmitted == nil || resubmitted.ID != spec.ID {
		t.Fatal("producer not replayed")
	}
	// The reconstruct event must be in the log (R7 visibility).
	found := false
	for _, ev := range ctrl.Events() {
		if ev.Kind == "reconstruct" && ev.Task == spec.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("no reconstruct event logged")
	}
}

func TestRequestObjectPutIsNotReconstructable(t *testing.T) {
	ctrl := gcs.NewStore(2)
	obj := types.PutObjectID(types.DeriveTaskID(types.NilTaskID, 3), 1)
	node := types.NodeID(types.DeriveTaskID(types.NilTaskID, 102))
	ctrl.AddObjectLocation(obj, node, 8) // producer: nil
	ctrl.RemoveObjectLocation(obj, node)

	r := &Reconstructor{Ctrl: ctrl, Resubmit: func(s types.TaskSpec) error { return nil }}
	err := r.RequestReturn(obj, types.NilTaskID)
	if !errors.Is(err, ErrNotReconstructable) {
		t.Fatalf("err = %v", err)
	}
}

func TestRequestObjectUnknown(t *testing.T) {
	ctrl := gcs.NewStore(2)
	r := &Reconstructor{Ctrl: ctrl, Resubmit: func(s types.TaskSpec) error { return nil }}
	obj := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 4), 0)
	if err := r.RequestReturn(obj, types.NilTaskID); err == nil {
		t.Fatal("unknown object accepted")
	}
}

// deadCtrl models a control plane whose incarnation has died: every read
// comes back empty and the liveness probe fails. It wraps a healthy store
// so the non-overridden methods keep their signatures.
type deadCtrl struct {
	gcs.API
	deadObjects bool
	deadTasks   bool
}

func (d *deadCtrl) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	if d.deadObjects {
		return types.ObjectInfo{}, false
	}
	return d.API.GetObject(id)
}

func (d *deadCtrl) GetTask(id types.TaskID) (types.TaskState, bool) {
	if d.deadTasks {
		return types.TaskState{}, false
	}
	return d.API.GetTask(id)
}

func (d *deadCtrl) Ping() bool { return false }

// TestRequestObjectDeadControlPlaneIsRetryable is the regression test for
// the resolver-wedging bug: RequestReturn against a dead GCS incarnation
// must return ErrControlUnavailable — a retryable error the resolver loop
// keeps waiting on — instead of a permanent "object unknown" failure (or,
// worse, a spurious replay of a healthy task).
func TestRequestObjectDeadControlPlaneIsRetryable(t *testing.T) {
	backing := gcs.NewStore(2)
	task := types.DeriveTaskID(types.NilTaskID, 6)
	obj := types.ObjectIDForReturn(task, 0)
	backing.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, NumReturns: 1}, Status: types.TaskRunning})
	backing.EnsureObject(obj, task)

	r := &Reconstructor{
		Ctrl:     &deadCtrl{API: backing, deadObjects: true},
		Resubmit: func(types.TaskSpec) error { t.Fatal("resubmitted through a dead control plane"); return nil },
	}
	err := r.RequestReturn(obj, types.NilTaskID)
	if !errors.Is(err, ErrControlUnavailable) {
		t.Fatalf("object lookup against dead GCS: err = %v, want ErrControlUnavailable", err)
	}

	// Same when the object read succeeds but the lineage lookup hits the
	// dead shard.
	r.Ctrl = &deadCtrl{API: backing, deadTasks: true}
	err = r.RequestReturn(obj, types.NilTaskID)
	if !errors.Is(err, ErrControlUnavailable) {
		t.Fatalf("lineage lookup against dead GCS: err = %v, want ErrControlUnavailable", err)
	}

	// Once the control plane answers again, the same request proceeds
	// normally (healthy running producer: no-op, no error).
	r.Ctrl = backing
	// Producer node is unknown/dead in this synthetic setup, so a replay is
	// attempted; accept it quietly to prove the error cleared.
	resubmitted := false
	r.Resubmit = func(types.TaskSpec) error { resubmitted = true; return nil }
	if err := r.RequestReturn(obj, types.NilTaskID); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if !resubmitted {
		t.Fatal("stranded producer not replayed after recovery")
	}
}

func TestRequestObjectMissingLineage(t *testing.T) {
	ctrl := gcs.NewStore(2)
	task := types.DeriveTaskID(types.NilTaskID, 5)
	obj := types.ObjectIDForReturn(task, 0)
	node := types.NodeID(types.DeriveTaskID(types.NilTaskID, 103))
	ctrl.EnsureObject(obj, task) // producer recorded but no task-table entry
	ctrl.AddObjectLocation(obj, node, 8)
	ctrl.RemoveObjectLocation(obj, node)

	r := &Reconstructor{Ctrl: ctrl, Resubmit: func(s types.TaskSpec) error { return nil }}
	if err := r.RequestReturn(obj, types.NilTaskID); err == nil {
		t.Fatal("missing lineage record accepted")
	}
}
