package lifetime

import (
	"testing"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// homeRig is one node's lifetime pieces wired as a node wires them, batched,
// with the test as both flushers.
type homeRig struct {
	ctrl  *gcs.Store
	store *objectstore.Store
	m     *Manager
	led   *TaskLedger
	reg   *metrics.Registry
}

func newHomeRig() *homeRig {
	node := retireTestNode(1)
	r := &homeRig{ctrl: gcs.NewStore(2), reg: metrics.NewRegistry()}
	r.store = objectstore.New(node, r.ctrl, 0)
	r.m = NewManager(r.ctrl, r.store)
	r.m.SetMetrics(r.reg)
	r.led = NewTaskLedger(r.ctrl)
	r.led.SetNode(node)
	r.led.SetCollector(r.m)
	r.m.SetTaskLedger(r.led)
	r.m.tracker.SetNode(node)
	r.m.tracker.async, r.led.async = true, true
	return r
}

// born adopts task i's birth, with its driver's reference to each return.
func (r *homeRig) born(i uint64, returns int) (types.TaskID, []types.ObjectID) {
	spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, i), Function: "f", NumReturns: returns}
	ids := spec.AppendReturns(nil)
	r.m.tracker.Retain(ids...)
	r.led.Birth(nil, &spec, r.led.ClockNs())
	return spec.ID, ids
}

// finish stores the task's returns held back and stamps it FINISHED, as the
// executor does.
func (r *homeRig) finish(task types.TaskID, ids []types.ObjectID) {
	for _, id := range ids {
		r.store.PutDeferred(id, []byte("v"))
	}
	r.led.Transition(task, types.TaskFinished, types.NilWorkerID, "")
}

// collected reports whether the task and its returns are gone without a
// trace: from the ledger, the store, the tracker and both tables.
func (r *homeRig) collected(task types.TaskID, ids []types.ObjectID) bool {
	if r.led.Owns(task) {
		return false
	}
	if _, ok := r.ctrl.GetTask(task); ok {
		return false
	}
	unflushed := r.m.tracker.Unflushed()
	for _, id := range ids {
		_, known := r.ctrl.GetObject(id)
		_, pending := unflushed[id]
		if known || pending || r.store.Contains(id) {
			return false
		}
	}
	return true
}

// TestOwedReturnIsOneKey: while a task's birth is owed, the tracker keeps
// the deltas on its return in the object's one entry, beside its count,
// and the ledger lists none of the task's transitions for the next flush.
func TestOwedReturnIsOneKey(t *testing.T) {
	r := newHomeRig()
	task, ids := r.born(1, 1)
	r.led.Transition(task, types.TaskRunning, types.NilWorkerID, "")
	r.m.tracker.Release(ids...)
	tr := r.m.tracker
	tr.mu.Lock()
	keys, pending, entry := len(tr.held), len(tr.pending), tr.held[ids[0]]
	tr.mu.Unlock()
	if keys != 1 || pending != 0 || entry != (ref{owed: true, set: true}) {
		t.Fatalf("tracker: %d keys, %d pending, entry %+v", keys, pending, entry)
	}
	r.led.mu.Lock()
	listed := len(r.led.dirty)
	r.led.mu.Unlock()
	if listed != 0 {
		t.Fatalf("the ledger lists %d transitions of an owed birth", listed)
	}
}

// TestCollectHomeRule pins each condition of collection at home (DESIGN.md
// §17) on one node's ledgers, with the flushes made by hand.
func TestCollectHomeRule(t *testing.T) {
	t.Run("released", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 2)
		r.finish(task, ids)
		r.m.tracker.Release(ids...)
		r.m.tracker.flush(true) // a timed flush holds the touches back
		if _, ok := r.ctrl.GetObject(ids[0]); ok {
			t.Fatal("a timed reference flush sent a touch on a return whose birth is owed")
		}
		r.led.Flush()
		if !r.collected(task, ids) {
			t.Fatal("a released task that never left the node was not collected")
		}
		if n, o := r.reg.Counter("lifetime.home.tasks").Value(), r.reg.Counter("lifetime.home.objects").Value(); n != 1 || o != 2 {
			t.Fatalf("counted %d tasks and %d objects collected at home, want 1 and 2", n, o)
		}
	})
	t.Run("held", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.led.Flush()
		if st, ok := r.ctrl.GetTask(task); !ok || st.Status != types.TaskFinished {
			t.Fatalf("a held return's task: %+v, %v; want it FINISHED in the table", st, ok)
		}
		if info, _ := r.ctrl.GetObject(ids[0]); len(info.Locations) != 1 {
			t.Fatalf("a held return's locations after its birth landed: %v, want this node", info.Locations)
		}
	})
	t.Run("one-return-held", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 2)
		r.finish(task, ids)
		r.m.tracker.Release(ids[1])
		r.led.Flush()
		if _, ok := r.ctrl.GetTask(task); !ok || !r.store.Contains(ids[1]) {
			t.Fatal("a task with one held return was collected, whole or in part")
		}
	})
	t.Run("running", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.store.PutDeferred(ids[0], []byte("v"))
		r.m.tracker.Release(ids...)
		r.led.Flush()
		if _, ok := r.ctrl.GetTask(task); !ok {
			t.Fatal("a task not yet terminal was collected")
		}
	})
	t.Run("counted", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.m.tracker.Flush() // the held reference reaches the table
		r.m.tracker.Release(ids...)
		r.led.Flush()
		if _, ok := r.ctrl.GetTask(task); !ok {
			t.Fatal("a task whose return was counted in the table was collected")
		}
	})
	t.Run("taken", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		// A task admitted here borrows it and flushes the borrow before its
		// QUEUED stamp; then it runs, and the borrow and the driver's
		// reference go.
		r.m.tracker.Retain(ids...)
		r.m.tracker.Flush()
		r.m.tracker.Release(ids...)
		r.m.tracker.Release(ids...)
		r.led.Flush()
		if _, ok := r.ctrl.GetTask(task); !ok {
			t.Fatal("a task whose return a local task took was collected")
		}
	})
	t.Run("announced", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.store.Announce(ids...) // a spilled task took it along
		r.m.tracker.Release(ids...)
		r.led.Flush()
		if _, ok := r.ctrl.GetTask(task); !ok {
			t.Fatal("a task whose return escaped was collected")
		}
	})
	t.Run("no-collector", func(t *testing.T) {
		r := newHomeRig()
		r.led.SetCollector(nil)
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.m.tracker.Release(ids...)
		r.m.tracker.Flush()
		if _, ok := r.ctrl.GetObject(ids[0]); !ok {
			t.Fatal("the touch was held back with no flush to decide the copy's fate")
		}
		r.led.Flush()
		if _, ok := r.ctrl.GetTask(task); !ok {
			t.Fatal("a ledger with no collector collected a task")
		}
	})
	t.Run("abandoned", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.m.tracker.Release(ids...)
		r.led.async = false // Abandon waits for the flusher, and there is none
		r.led.Abandon()
		r.led.Flush()
		r.led.LandBirths(task)
		if !r.store.Contains(ids[0]) || r.reg.Counter("lifetime.home.tasks").Value() != 0 {
			t.Fatal("an abandoned ledger collected a task")
		}
	})
}

// TestBirthCollectsTheNewestEnded pins collection at Birth: before it owes
// a new task, Birth offers the newest owed birth to home collection, under
// the same rule as the flush. Each case ends a task, or not, then births the
// next; no flush is made.
func TestBirthCollectsTheNewestEnded(t *testing.T) {
	// next births the task after task and reports whether task is kept,
	// whole: in the ledger, with its return's copy.
	next := func(t *testing.T, r *homeRig, task types.TaskID, ids []types.ObjectID) bool {
		t.Helper()
		r.born(2, 1)
		owned, stored := r.led.Owns(task), r.store.Contains(ids[0])
		if owned != stored {
			t.Fatalf("the ledger owns the task: %v; the store holds its return: %v", owned, stored)
		}
		return owned
	}
	t.Run("running", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.store.PutDeferred(ids[0], []byte("v"))
		r.m.tracker.Release(ids...)
		if !next(t, r, task, ids) {
			t.Fatal("a task not yet terminal was collected")
		}
	})
	t.Run("held", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		if !next(t, r, task, ids) {
			t.Fatal("a task whose return is held was collected")
		}
	})
	t.Run("sent", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.m.tracker.Release(ids...)
		r.led.mu.Lock()
		r.led.tasks[task].birthOp = newRefToken() // a delivery a shard did not take
		r.led.mu.Unlock()
		if !next(t, r, task, ids) {
			t.Fatal("a task whose birth was sent was collected")
		}
	})
	t.Run("released", func(t *testing.T) {
		r := newHomeRig()
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.m.tracker.Release(ids...)
		if next(t, r, task, ids) {
			t.Fatal("an ended, released task that never left the node was kept")
		}
		if !r.collected(task, ids) {
			t.Fatal("the collected task left state behind")
		}
		tr := r.m.tracker
		tr.mu.Lock()
		_, held := tr.held[ids[0]]
		keys := len(tr.held)
		tr.mu.Unlock()
		r.led.mu.Lock()
		entries, owed := len(r.led.tasks), r.led.owed
		r.led.mu.Unlock()
		if held || keys != 1 || entries != 1 || owed != 1 {
			t.Fatalf("tracker: return held %v, %d keys; ledger: %d entries, %d owed; want only the next task's", held, keys, entries, owed)
		}
		if n := r.reg.Counter("lifetime.home.tasks").Value(); n != 1 {
			t.Fatalf("counted %d tasks collected at home, want 1", n)
		}
	})
	t.Run("no-collector", func(t *testing.T) {
		r := newHomeRig()
		r.led.SetCollector(nil)
		task, ids := r.born(1, 1)
		r.finish(task, ids)
		r.m.tracker.Release(ids...)
		if !next(t, r, task, ids) {
			t.Fatal("a ledger with no collector collected a task at Birth")
		}
	})
}
