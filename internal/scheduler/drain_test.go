package scheduler

import (
	"errors"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// TestDrainingAdmissionFence pins the local half of the drain protocol
// (DESIGN.md §10): a draining node refuses global placements with
// ErrDraining (leaving the task unowned for re-placement), routes
// locally-born tasks to the spill queue instead of running them, and
// resumes normal admission when the fence drops.
func TestDrainingAdmissionFence(t *testing.T) {
	l, log, ctrl, _ := buildLocal(t, types.CPU(4), SpillNever)
	sub := ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	defer sub.Close()

	l.SetDraining(true)

	// Global assignment: refused before any ownership claim.
	placed := tSpec(300, types.CPU(1))
	if err := l.Submit(placed, true); !errors.Is(err, ErrDraining) {
		t.Fatalf("placed submit on draining node: err=%v, want ErrDraining", err)
	}
	if st, ok := ctrl.GetTask(placed.ID); !ok || st.Status != types.TaskPending {
		t.Fatalf("refused task must stay PENDING and unowned: %+v ok=%v", st, ok)
	}

	// Locally-born task: spills to the global queue, never runs here.
	local := tSpec(301, types.CPU(1))
	if err := l.Submit(local, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("locally-born task did not spill off the draining node")
	}
	select {
	case id := <-log.ch:
		t.Fatalf("task %v ran on a draining node", id)
	case <-time.After(50 * time.Millisecond):
	}

	// Fence down: admission resumes.
	l.SetDraining(false)
	resumed := tSpec(302, types.CPU(1))
	if err := l.Submit(resumed, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, resumed.ID)
}

// TestDrainBacklogRespills pins the backlog hand-off: DrainBacklog evicts
// waiting tasks (cancelling their pulls), publishes them to the spill
// queue with their claim released (status back to PENDING), and leaves the
// scheduler quiescent.
func TestDrainBacklogRespills(t *testing.T) {
	l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
	sub := ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	defer sub.Close()

	// A task parked on a dependency that never arrives.
	var dep types.ObjectID
	dep[0] = 88
	ctrl.EnsureObject(dep, types.NilTaskID)
	blocked := tSpec(310, types.CPU(1), dep)
	if err := l.Submit(blocked, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.WaitingLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never parked")
		}
		time.Sleep(time.Millisecond)
	}

	l.SetDraining(true)
	if n := l.DrainBacklog(); n != 1 {
		t.Fatalf("DrainBacklog evicted %d tasks, want 1", n)
	}
	select {
	case <-sub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("evicted task was not respilled")
	}
	if st, ok := ctrl.GetTask(blocked.ID); !ok || st.Status != types.TaskPending {
		t.Fatalf("respilled task must be PENDING for its next owner: %+v ok=%v", st, ok)
	}
	if busy := l.Busy(); busy != 0 {
		t.Fatalf("scheduler not quiescent after drain: busy=%d", busy)
	}
	select {
	case id := <-log.ch:
		t.Fatalf("task %v ran after eviction", id)
	case <-time.After(50 * time.Millisecond):
	}

	// The retry re-enqueue path also diverts while draining.
	retry := tSpec(311, types.CPU(1))
	ctrl.AddTask(types.TaskState{Spec: retry, Status: types.TaskPending})
	if err := l.Enqueue(retry); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("retry enqueue on draining node was not respilled")
	}
}
