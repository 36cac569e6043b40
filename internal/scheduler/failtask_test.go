package scheduler

import (
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/gcs"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// parkingCtrl refuses ledger flushes while held: stamps park in the ledger's
// retry queue, which leaves the follower table behind its owner for exactly
// as long as the test wants.
type parkingCtrl struct {
	gcs.API
	held atomic.Bool
}

func (p *parkingCtrl) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	if !p.held.Load() {
		return p.API.ModifyTaskStates(node, deltas, op)
	}
	failed := make([]types.TaskID, len(deltas))
	for i, d := range deltas {
		failed[i] = d.ID
	}
	return failed
}

// TestFailTaskReadsOwnersView is the follower-CAS regression (DESIGN.md
// §13): FailTask claims against the task table, which trails the owner
// ledger, so it must flush the task first. An unflushed QUEUED stamp still
// ends FAILED with the burying node and reason recorded; an unflushed
// FINISHED is not buried, even by a job stop that claims RUNNING.
func TestFailTaskReadsOwnersView(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nid := tNode(1)
	store := objectstore.New(nid, ctrl, 0)
	park := &parkingCtrl{API: ctrl}
	led := ledgertest.New(park, nid)
	l := NewLocal(LocalConfig{Node: nid, Total: types.CPU(2), Ctrl: ctrl, Store: store, Ledger: led, SpillThreshold: SpillNever})

	// stale admits a task and parks the given stamps, so the table still
	// says PENDING when FailTask runs.
	stale := func(i uint64, stamps ...types.TaskStatus) types.TaskSpec {
		spec := tSpec(i, nil)
		ledgertest.Admit(led, spec)
		park.held.Store(true)
		for _, s := range stamps {
			led.Transition(spec.ID, s, types.NilWorkerID, "")
		}
		park.held.Store(false)
		if st, _ := ctrl.GetTask(spec.ID); st.Status != types.TaskPending {
			t.Fatalf("setup: follower already at %v", st.Status)
		}
		return spec
	}

	queued := stale(90, types.TaskQueued)
	reason := types.ReasonGroupRemoved + "g"
	l.FailTask(queued, reason)
	st, _ := ctrl.GetTask(queued.ID)
	if st.Status != types.TaskFailed || st.Node != nid || st.Error != reason {
		t.Fatalf("buried record = status %v node %v error %q", st.Status, st.Node, st.Error)
	}
	data, ok := store.Get(queued.ReturnID(0))
	if msg, isErr := codec.AsError(data); !ok || !isErr || msg != reason {
		t.Fatalf("error payload = %q (stored=%v isErr=%v)", msg, ok, isErr)
	}
	if led.Owns(queued.ID) {
		t.Fatal("burial left a live tenure in the ledger")
	}

	finished := stale(91, types.TaskQueued, types.TaskScheduled, types.TaskRunning, types.TaskFinished)
	l.FailTask(finished, types.ReasonJobStopped+"j")
	if st, _ := ctrl.GetTask(finished.ID); st.Status != types.TaskFinished {
		t.Fatalf("job stop buried a task its owner had finished: %v (%q)", st.Status, st.Error)
	}
	if store.Contains(finished.ReturnID(0)) {
		t.Fatal("error payload stored over a finished task's return")
	}
}
