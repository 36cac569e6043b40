package scheduler

import (
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// TestStopReturnsQueuedBorrows is the regression test for the abrupt-Stop
// leak: Stop used to abandon the runnable and waiting queues without
// returning their enqueue-time argument borrows, so every dependency of a
// task still queued at shutdown stayed referenced forever. With the
// ledger-backed Stop the chaostest invariants must settle: all refcounts
// drain to zero and the ledger/table conservation law holds.
func TestStopReturnsQueuedBorrows(t *testing.T) {
	ctrl := gcs.NewStore(4)
	nid := tNode(1)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(4), Alive: true})
	store := objectstore.New(nid, ctrl, 0)

	tracker := lifetime.NewTracker(ctrl)
	tracker.SetNode(nid)
	tracker.Start()
	defer tracker.Stop()

	// The scheduler is deliberately NOT started: submitted tasks park
	// in runnable/waiting, which is exactly the state an abrupt Stop
	// abandons.
	l := NewLocal(LocalConfig{
		Node:           nid,
		Total:          types.CPU(4),
		Ctrl:           ctrl,
		Store:          store,
		Refs:           tracker,
		Ledger:         ledgertest.New(ctrl, nid),
		SpillThreshold: SpillNever,
	})

	// A runnable task: its dependency is locally resident.
	readyDep := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 500), 0)
	if err := store.Put(readyDep, []byte("dep")); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit(tSpec(1, types.CPU(1), readyDep), false); err != nil {
		t.Fatal(err)
	}
	// A waiting task: its dependency exists in the table but has no copy
	// anywhere yet, so the task parks with resolvers attached.
	pendingDep := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 501), 0)
	ctrl.EnsureObject(pendingDep, types.DeriveTaskID(types.NilTaskID, 502))
	if err := l.Submit(tSpec(2, types.CPU(1), pendingDep), false); err != nil {
		t.Fatal(err)
	}

	// Both enqueues flushed their borrows before stamping QUEUED, so the
	// control plane's counts are already positive.
	for _, dep := range []types.ObjectID{readyDep, pendingDep} {
		info, ok := ctrl.GetObject(dep)
		if !ok || info.RefCount != 1 {
			t.Fatalf("dep %v refcount before Stop = %d (ok=%v), want 1", dep, info.RefCount, ok)
		}
	}

	l.Stop()
	l.Stop() // idempotent

	chk := chaostest.New(ctrl)
	chk.AwaitZeroRefcounts(t, 5*time.Second)
	chk.AwaitRefConservation(t, 5*time.Second, map[string]chaostest.Ledger{"n1": tracker})
}
