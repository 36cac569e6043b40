package lifetime

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gcs"
	"repro/internal/types"
)

// parkRig is a started task ledger over an in-memory table, and a task born
// into an entry its test holds, as a submitter's record holds one.
func parkRig(t *testing.T, b byte) (*gcs.Store, *TaskLedger, *TaskEntry, types.TaskID) {
	t.Helper()
	st := gcs.NewStore(2)
	led := NewTaskLedger(st)
	led.SetNode(types.NodeID{0xD5})
	led.Start()
	t.Cleanup(led.Stop)
	e, spec := new(TaskEntry), ownSpec(b)
	if adopted, _ := led.Birth(e, &spec, 100); !adopted {
		t.Fatal("Birth refused a new task")
	}
	return st, led, e, spec.ID
}

// parked reports the phases parked in e and not folded yet.
func parked(e *TaskEntry) uint32 { return atomic.LoadUint32(&e.park) &^ parkOpen }

// TestParkedStampsFoldInOrder pins the parked stamps of a task whose birth
// is owed: each waits in the task's entry until a reader under the ledger's
// lock folds it, in phase order — Lookup and WatchEndOrYield see them, a
// parked SCHEDULED still makes a Get yield, the end folds what is left
// before it stamps — and a fold does not move the ledger's latest mutation
// instant back.
func TestParkedStampsFoldInOrder(t *testing.T) {
	_, led, e, id := parkRig(t, 40)
	for _, s := range []struct {
		status types.TaskStatus
		at     int64
	}{{types.TaskQueued, 200}, {types.TaskScheduled, 300}} {
		if !led.Park(e, id, s.status, s.at) {
			t.Fatalf("Park(%v) reported the task not owned", s.status)
		}
	}
	if parked(e) != parkedBit(0)|parkedBit(1) {
		t.Fatalf("parked phases %b after QUEUED and SCHEDULED, want %b", parked(e), parkedBit(0)|parkedBit(1))
	}
	other := ownSpec(41)
	led.Birth(nil, &other, 1000) // a later mutation than every parked stamp
	ch := make(chan types.TaskID, 1)
	if watching, handed := led.WatchEndOrYield(ch, id, true); watching || !handed {
		t.Fatalf("WatchEndOrYield on a parked SCHEDULED = (%v, %v), want a yield", watching, handed)
	}
	if parked(e) != 0 || led.Watchers(id) != 0 {
		t.Fatalf("after the yield: parked %b, %d watchers, want none of either", parked(e), led.Watchers(id))
	}
	led.mu.Lock()
	mut := led.mutNs
	led.mu.Unlock()
	if mut != 1000 {
		t.Fatalf("the fold moved the latest mutation instant to %d, want 1000", mut)
	}

	led.Park(e, id, types.TaskRunning, 400)
	st, ok := led.Lookup(id)
	switch {
	case !ok || st.Status != types.TaskRunning || st.OwnerSeq != 3:
		t.Fatalf("Lookup = %v at seq %d (owned %v), want RUNNING at seq 3", st.Status, st.OwnerSeq, ok)
	case st.ScheduledNs != 300 || st.StartedNs != 400 || st.LastTransitionNs != 400:
		t.Fatalf("Lookup instants scheduled %d, started %d, last %d, want 300, 400, 400", st.ScheduledNs, st.StartedNs, st.LastTransitionNs)
	case st.Worker != types.WorkerID(id) || st.Spec.ID != id:
		t.Fatalf("Lookup worker %v, spec %v, want the task's ID as worker and its spec while the birth is owed", st.Worker, st.Spec.ID)
	}
	if watching, _ := led.WatchEndOrYield(ch, id, true); !watching {
		t.Fatal("a Get on a RUNNING task did not register")
	}
	if !led.EndOwed(e, id, types.TaskFinished, types.WorkerID(id), "", 500) {
		t.Fatal("EndOwed did not stamp the end of an owed birth")
	}
	if got := <-ch; got != id {
		t.Fatalf("the end woke the Get with %v, want %v", got, id)
	}
	if st, _ := led.Lookup(id); st.Status != types.TaskFinished || st.FinishedNs != 500 || st.OwnerSeq != 4 {
		t.Fatalf("after the end: %v at seq %d, finished %d, want FINISHED at seq 4, finished 500", st.Status, st.OwnerSeq, st.FinishedNs)
	}
}

// TestStampParkedWhileTheBirthLands races a task's parked stamps against
// the flush that lands its birth and so closes its entry: each stamp is
// folded by the close or, finding the entry closed, takes the lock, and
// either way the next delta carries it to the table. CI runs it under the
// race detector a hundred times.
func TestStampParkedWhileTheBirthLands(t *testing.T) {
	const tasks = 20
	st, led, _, _ := parkRig(t, 50)
	entries := make([]*TaskEntry, tasks)
	ids := make([]types.TaskID, tasks)
	for i := range entries {
		spec := ownSpec(byte(60 + i))
		entries[i], ids[i] = new(TaskEntry), spec.ID
		led.Birth(entries[i], &spec, 100)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, e := range entries {
			for k, status := range parkedPhases {
				led.Park(e, ids[i], status, int64(200+100*k))
			}
		}
	}()
	go func() {
		defer wg.Done()
		led.Flush()
	}()
	wg.Wait()
	led.Flush()
	for i, id := range ids {
		got, ok := st.GetTask(id)
		if !ok || got.Status != types.TaskRunning || got.ScheduledNs != 300 || got.StartedNs != 400 {
			t.Fatalf("task %d in the table: %v (held %v), scheduled %d, started %d; want RUNNING, 300, 400",
				i, got.Status, ok, got.ScheduledNs, got.StartedNs)
		}
		if atomic.LoadUint32(&entries[i].park) != 0 {
			t.Fatalf("task %d's entry is still open once its birth landed", i)
		}
	}
}

// TestParkedQueuedClearsLaterPhases pins the evicted-arguments path: a task
// whose record parked QUEUED, SCHEDULED and RUNNING is queued again before
// anything folded them, and the QUEUED it parks then drops the later
// phases of the earlier run, so the ledger reads it queued.
func TestParkedQueuedClearsLaterPhases(t *testing.T) {
	_, led, e, id := parkRig(t, 42)
	for k, status := range parkedPhases {
		led.Park(e, id, status, int64(200+100*k))
	}
	led.Park(e, id, types.TaskQueued, 500)
	if parked(e) != parkedBit(0) {
		t.Fatalf("parked phases %b after the second QUEUED, want QUEUED alone", parked(e))
	}
	st, _ := led.Lookup(id)
	if st.Status != types.TaskQueued || st.LastTransitionNs != 500 || st.ScheduledNs != 0 || st.StartedNs != 0 {
		t.Fatalf("Lookup = %v, last %d, scheduled %d, started %d; want QUEUED at 500 with neither later phase",
			st.Status, st.LastTransitionNs, st.ScheduledNs, st.StartedNs)
	}
}

// TestRetryStampsTakeTheLock pins what parks and what does not. A retry's
// run has a record of its own whose entry is not the ledger's, so its
// stamps take the lock, and so does its end, on the task's owed entry; the
// retry bookkeeping folds what the first run parked before it stamps. A
// ledger that was never started parks nothing: each stamp flushes inline.
func TestRetryStampsTakeTheLock(t *testing.T) {
	_, led, e, id := parkRig(t, 43)
	for k, status := range parkedPhases {
		led.Park(e, id, status, int64(200+100*k))
	}
	if n, retrying := led.TransitionRetry(id, 3); n != 1 || !retrying {
		t.Fatalf("TransitionRetry = (%d, %v), want (1, true)", n, retrying)
	}
	if st, _ := led.Lookup(id); st.Status != types.TaskPending || st.OwnerSeq != 4 || st.StartedNs != 400 {
		t.Fatalf("after the retry: %v at seq %d, started %d; want PENDING at seq 4, started 400", st.Status, st.OwnerSeq, st.StartedNs)
	}
	retry := new(TaskEntry)
	if !led.Park(retry, id, types.TaskQueued, 600) {
		t.Fatal("the retry's QUEUED reported the task not owned")
	}
	if parked(e) != 0 || atomic.LoadUint32(&retry.park) != 0 {
		t.Fatalf("the retry's QUEUED parked: %b in the task's entry, %b in the retry's", parked(e), atomic.LoadUint32(&retry.park))
	}
	if st, _ := led.Lookup(id); st.Status != types.TaskQueued || st.LastTransitionNs != 600 {
		t.Fatalf("after the retry's QUEUED: %v at %d, want QUEUED at 600", st.Status, st.LastTransitionNs)
	}
	if !led.EndOwed(retry, id, types.TaskFinished, types.WorkerID(id), "", 700) {
		t.Fatal("the retry's end found no owed birth")
	}

	st := gcs.NewStore(2)
	unstarted := NewTaskLedger(st)
	unstarted.SetNode(types.NodeID{0xD6})
	e, spec := new(TaskEntry), ownSpec(44)
	unstarted.Birth(e, &spec, 100)
	unstarted.Park(e, spec.ID, types.TaskQueued, 200)
	if got, _ := st.GetTask(spec.ID); got.Status != types.TaskQueued || atomic.LoadUint32(&e.park) != 0 {
		t.Fatalf("an unstarted ledger's QUEUED: table reads %v, park word %b; want QUEUED and closed", got.Status, atomic.LoadUint32(&e.park))
	}
}
