package scheduler

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// bridgeCtrl is a control plane that counts subscriptions (tableCtrl) and
// task-record reads, and whose records and reachability a test can take
// away: a record in gone reads as absent, and down makes Ping fail.
type bridgeCtrl struct {
	*tableCtrl
	taskReads atomic.Int64
	gone      atomic.Pointer[types.TaskID]
	down      atomic.Bool
}

func (c *bridgeCtrl) GetTask(id types.TaskID) (types.TaskState, bool) {
	c.taskReads.Add(1)
	if g := c.gone.Load(); g != nil && *g == id {
		return types.TaskState{}, false
	}
	return c.Store.GetTask(id)
}

func (c *bridgeCtrl) Ping() bool { return !c.down.Load() }

// subs is how many subscriptions the node has opened.
func (c *bridgeCtrl) subs() int64 { return c.nodeSubs.Load() + c.otherSubs.Load() }

// spillingLocal is a started Local that spills every task it is given,
// with a bridge on each task's arguments, on a counting control plane.
func spillingLocal(t *testing.T) (*Local, *bridgeCtrl, *countingRefs) {
	t.Helper()
	nid := tNode(1)
	store := gcs.NewStore(4)
	store.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(2)})
	ctrl := &bridgeCtrl{tableCtrl: &tableCtrl{Store: store}}
	refs := &countingRefs{}
	l := NewLocal(LocalConfig{Node: nid, Total: types.CPU(2), Ctrl: ctrl, Store: objectstore.New(nid, store, 0),
		Ledger: ledgertest.New(store, nid), Refs: refs, SpillThreshold: SpillAlways})
	t.Cleanup(l.Stop)
	l.SetExec(func(context.Context, types.TaskSpec, [][]byte) { t.Error("a spilled task ran here") })
	l.Start()
	return l, ctrl, refs
}

// spillWithArgs spills task i with two by-reference arguments.
func spillWithArgs(t *testing.T, l *Local, i uint64) types.TaskSpec {
	t.Helper()
	spec := tSpec(i, nil, types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 10*i), 0),
		types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 10*i+1), 0))
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	return spec
}

// awaitSweeps waits until the table has read every bridged task's record
// n more times than it had at reads: n more sweeps.
func awaitSweeps(t *testing.T, ctrl *bridgeCtrl, reads int64, tasks, n int) {
	t.Helper()
	await(t, fmt.Sprintf("swept %d times", n), func() bool { return ctrl.taskReads.Load() >= reads+int64(tasks*n) })
}

// awaitWithin polls cond for up to within.
func awaitWithin(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	for from := time.Now(); !cond(); {
		if time.Since(from) > within {
			t.Fatalf("not %s within %v", what, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpillBridgeBudget: a spill bridge costs no goroutine, timer or
// subscription. 64 spilled tasks with 2 arguments each open no
// subscription and raise the process's goroutines by 0, and while they are
// unclaimed no borrow is released, however many sweeps read their records.
// Once each is claimed SCHEDULED, all 128 borrows come back within 3 poll
// periods.
func TestSpillBridgeBudget(t *testing.T) {
	const tasks = 64
	l, ctrl, refs := spillingLocal(t)
	subs, reads := ctrl.subs(), ctrl.taskReads.Load()
	baseline := runtime.NumGoroutine()
	var specs []types.TaskSpec
	for i := uint64(0); i < tasks; i++ {
		specs = append(specs, spillWithArgs(t, l, 7000+i))
	}
	if n := refs.retained.Load(); n != 2*tasks {
		t.Fatalf("%d borrows taken, want %d", n, 2*tasks)
	}
	awaitSweeps(t, ctrl, reads, tasks, 2)
	if n := ctrl.subs() - subs; n != 0 {
		t.Fatalf("%d spills opened %d subscriptions, want 0", tasks, n)
	}
	if n := runtime.NumGoroutine() - baseline; n > 0 {
		t.Fatalf("%d spills raised goroutines by %d, want 0", tasks, n)
	}
	if n := refs.released.Load(); n != 0 {
		t.Fatalf("%d borrows released while the tasks are unclaimed", n)
	}
	for _, spec := range specs {
		if _, ok := ctrl.ClaimTask(spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskScheduled, tNode(2)); !ok {
			t.Fatalf("claim of %v lost", spec.ID)
		}
	}
	awaitWithin(t, "every borrow released", 3*pollPeriod, func() bool { return refs.released.Load() == 2*tasks })
}

// bridged is one spilled task and what its bridge lives on.
type bridged struct {
	l    *Local
	ctrl *bridgeCtrl
	refs *countingRefs
	id   types.TaskID
}

// kept checks that two more sweeps left the bridge's borrows held.
func (b bridged) kept(t *testing.T) {
	t.Helper()
	awaitSweeps(t, b.ctrl, b.ctrl.taskReads.Load(), 1, 2)
	if n := b.refs.released.Load(); n != 0 {
		t.Fatalf("%d borrows released", n)
	}
}

// TestSpillBridgeEnds: each way a bridge ends. A claimed task releases
// its bridge once it is SCHEDULED, RUNNING or FINISHED, not while it is
// QUEUED; an unclaimed task's borrow goes with its record: it is released
// once the task is FAILED or LOST, or its record is gone from a control
// plane that answers, and kept while the control plane does not answer. A
// Stop releases nothing.
func TestSpillBridgeEnds(t *testing.T) {
	claimed := func(to types.TaskStatus) func(*testing.T, bridged) {
		return func(t *testing.T, b bridged) {
			if _, ok := b.ctrl.ClaimTask(b.id, []types.TaskStatus{types.TaskPending}, types.TaskQueued, tNode(2)); !ok {
				t.Fatal("claim lost")
			}
			b.kept(t)
			if _, ok := b.ctrl.ClaimTask(b.id, []types.TaskStatus{types.TaskQueued}, to, types.NilNodeID); !ok {
				t.Fatalf("CAS to %v lost", to)
			}
		}
	}
	unclaimed := func(to types.TaskStatus) func(*testing.T, bridged) {
		return func(t *testing.T, b bridged) {
			if _, ok := b.ctrl.ClaimTask(b.id, []types.TaskStatus{types.TaskPending}, to, types.NilNodeID); !ok {
				t.Fatalf("CAS to %v lost", to)
			}
		}
	}
	for _, c := range []struct {
		name     string
		end      func(*testing.T, bridged)
		released bool
	}{
		{"claimed then SCHEDULED", claimed(types.TaskScheduled), true},
		{"claimed then RUNNING", claimed(types.TaskRunning), true},
		{"claimed then FINISHED", claimed(types.TaskFinished), true},
		{"FAILED unclaimed", unclaimed(types.TaskFailed), true},
		{"LOST", unclaimed(types.TaskLost), true},
		{"record gone, control plane answers", func(_ *testing.T, b bridged) { b.ctrl.gone.Store(&b.id) }, true},
		{"record gone, control plane silent", func(t *testing.T, b bridged) {
			b.ctrl.down.Store(true)
			b.ctrl.gone.Store(&b.id)
			b.kept(t)
			b.ctrl.down.Store(false)
		}, true},
		{"Stop", func(t *testing.T, b bridged) {
			b.l.Stop()
			if _, ok := b.ctrl.ClaimTask(b.id, []types.TaskStatus{types.TaskPending}, types.TaskScheduled, tNode(2)); !ok {
				t.Fatal("claim lost")
			}
			time.Sleep(3 * pollPeriod)
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, ctrl, refs := spillingLocal(t)
			reads := ctrl.taskReads.Load()
			spec := spillWithArgs(t, l, 7100)
			awaitSweeps(t, ctrl, reads, 1, 1)
			c.end(t, bridged{l, ctrl, refs, spec.ID})
			want := int64(0)
			if c.released {
				want = 2
				await(t, "released the bridge", func() bool { return refs.released.Load() == want })
			}
			if n := refs.released.Load(); n != want {
				t.Fatalf("%d borrows released, want %d", n, want)
			}
		})
	}
}
