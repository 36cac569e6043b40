package lifetime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/gcs"
	"repro/internal/transport"
	"repro/internal/types"
)

func ownTask(b byte) types.TaskID {
	var id types.TaskID
	id[0] = 0xB0
	id[1] = b
	return id
}

func ownSpec(b byte) types.TaskSpec {
	return types.TaskSpec{ID: ownTask(b), Function: "own.work", Resources: types.CPU(1)}
}

// TestTaskOwnershipCommitThenDieDedup is the deterministic crash-window
// test for the task ledger's flush path, mirroring the refcount ledger's
// shard-kill discipline: a shard commits a ModifyTaskStates batch (and a
// ClaimTaskOp), dies before the ack reaches the owner, and recovers from
// snapshot+WAL. Redelivery under the original token must be recognized —
// no re-application, no burned fence sequence — while genuinely new deltas
// afterwards still apply.
func TestTaskOwnershipCommitThenDieDedup(t *testing.T) {
	nw := transport.NewInproc(0)
	svc, err := gcs.StartShard(gcs.ShardConfig{Index: 0, Addr: "shard-taskown", Network: nw, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	owner := ownNode(6)
	spec := ownSpec(1)
	st := svc.Store()
	if !st.AddTask(types.TaskState{Spec: spec, Status: types.TaskPending, Owner: owner}) {
		t.Fatal("AddTask rejected")
	}

	// A RUNNING delta commits durably; the "crash" lands between commit
	// and ack.
	const op = 61
	running := []types.TaskStateDelta{{
		ID: spec.ID, Owner: owner, Seq: 1,
		Status: types.TaskRunning, Node: owner,
		StartedNs: 1000, LastTransitionNs: 1000, Retries: 1,
	}}
	if failed := st.ModifyTaskStates(owner, running, op); len(failed) != 0 {
		t.Fatalf("commit failed for %v", failed)
	}
	svc.Kill()
	if err := svc.Restart(); err != nil {
		t.Fatal(err)
	}
	st = svc.Store()

	// Redeliver under the original token, exactly as the ledger's retry
	// queue would: consumed, not re-applied, not failed.
	if failed := st.ModifyTaskStates(owner, running, op); len(failed) != 0 {
		t.Fatalf("redelivery failed for %v", failed)
	}
	got, ok := st.GetTask(spec.ID)
	if !ok || got.Status != types.TaskRunning || got.OwnerSeq != 1 || got.Retries != 1 {
		t.Fatalf("after redelivery: status=%v seq=%d retries=%d (ok=%v)", got.Status, got.OwnerSeq, got.Retries, ok)
	}

	// A fresh delta after the dedup still applies — the token history must
	// not swallow new sequences.
	finished := []types.TaskStateDelta{{
		ID: spec.ID, Owner: owner, Seq: 2,
		Status: types.TaskFinished, Node: owner,
		FinishedNs: 2000, LastTransitionNs: 2000, Retries: 1,
	}}
	if failed := st.ModifyTaskStates(owner, finished, 62); len(failed) != 0 {
		t.Fatalf("fresh delta failed for %v", failed)
	}
	got, _ = st.GetTask(spec.ID)
	if got.Status != types.TaskFinished || got.OwnerSeq != 2 {
		t.Fatalf("fresh delta not applied: status=%v seq=%d", got.Status, got.OwnerSeq)
	}

	// Claim-then-die: a transfer CAS whose ack was lost is recognized by
	// its token and reports won with the originally stamped sequence.
	spec2 := ownSpec(2)
	st.AddTask(types.TaskState{Spec: spec2, Status: types.TaskPending, Owner: owner})
	successor := ownNode(7)
	seq1, won := st.ClaimTaskOp(spec2.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, successor, 63)
	if !won {
		t.Fatal("claim lost")
	}
	svc.Kill()
	if err := svc.Restart(); err != nil {
		t.Fatal(err)
	}
	st = svc.Store()
	seq2, won := st.ClaimTaskOp(spec2.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, successor, 63)
	if !won || seq2 != seq1 {
		t.Fatalf("claim redelivery: won=%v seq=%d, want won with seq %d", won, seq2, seq1)
	}
	if got, _ := st.GetTask(spec2.ID); got.OwnerSeq != seq1 || got.Owner != successor {
		t.Fatalf("claim double-applied: owner=%v seq=%d", got.Owner, got.OwnerSeq)
	}
}

// TestTaskOwnershipConservationAcrossShardKill races a live task ledger's
// batched flushes against a control-plane shard kill/restart and asserts
// task-state conservation (DESIGN.md §13): every owned task ends in
// exactly one terminal state in the follower table, with flush batches
// genuinely in flight when the shard died — parked batches must redeliver
// under their original tokens until the table converges.
func TestTaskOwnershipConservationAcrossShardKill(t *testing.T) {
	nw := transport.NewInproc(0)
	sup, err := gcs.NewSupervisor(gcs.SupervisorConfig{
		Shards:  3,
		Network: nw,
		MapAddr: "gcs-taskown",
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	client, err := gcs.NewSharded(gcs.ShardedConfig{Network: nw, MapAddr: "gcs-taskown"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	owner := ownNode(8)
	ledger := NewTaskLedger(client)
	ledger.SetNode(owner)
	ledger.Start()

	var ids []types.TaskID
	for i := byte(0); i < 24; i++ {
		spec := ownSpec(0x10 + i)
		birth := types.TaskStateDelta{ID: spec.ID, Owner: owner, Status: types.TaskPending, Spec: &spec}
		if failed := client.ModifyTaskStates(owner, []types.TaskStateDelta{birth}, uint64(i)+1); len(failed) != 0 {
			t.Fatalf("birth %d rejected", i)
		}
		ledger.Adopt(spec.ID, 0, types.TaskPending)
		ids = append(ids, spec.ID)
	}

	// Walk every task through its lifecycle while a shard dies and comes
	// back, so ledger batches are in flight across the kill.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, phase := range []types.TaskStatus{types.TaskQueued, types.TaskRunning, types.TaskFinished} {
			for _, id := range ids {
				select {
				case <-done:
					return
				default:
				}
				ledger.Transition(id, phase, types.WorkerID(id), "")
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	sup.KillShard(1)
	time.Sleep(30 * time.Millisecond)
	if err := sup.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(done)

	// Drain the ledger — parked kill-window batches redeliver under their
	// original tokens — then the follower table must hold every task
	// terminal.
	deadline := time.Now().Add(10 * time.Second)
	for !ledger.Flush() {
		if time.Now().After(deadline) {
			t.Fatal("task ledger did not drain after shard restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	chaostest.New(client).AwaitTaskConservation(t, 10*time.Second, ids)
	for _, id := range ids {
		st, ok := client.GetTask(id)
		if !ok || st.Status != types.TaskFinished {
			t.Fatalf("task %v: status=%v ok=%v, want FINISHED", id, st.Status, ok)
		}
	}
	ledger.Stop()
}

// slowFlushCtrl holds the first ModifyTaskStates it sees until released,
// modelling a background flush whose RPC is still in flight.
type slowFlushCtrl struct {
	gcs.API
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *slowFlushCtrl) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.API.ModifyTaskStates(node, deltas, op)
}

// TestFlushTaskWaitsForInFlightFlush: FlushTask is the barrier callers put
// in front of a CAS on the follower table. A background flush that already
// took the task's delta off the dirty set leaves nothing for FlushTask to
// send — it must still not return before that flush has landed, or the CAS
// reads a table older than the ledger.
func TestFlushTaskWaitsForInFlightFlush(t *testing.T) {
	st := gcs.NewStore(2)
	owner := types.NodeID{0xD1}
	ctrl := &slowFlushCtrl{API: st, entered: make(chan struct{}), release: make(chan struct{})}
	led := NewTaskLedger(ctrl)
	led.SetNode(owner)
	led.Start() // batched mode: Transition only marks dirty
	defer led.Stop()

	spec := ownSpec(9)
	st.AddTask(types.TaskState{Spec: spec, Status: types.TaskPending, Owner: owner})
	led.Adopt(spec.ID, 0, types.TaskPending)
	led.Transition(spec.ID, types.TaskQueued, types.WorkerID{}, "")
	go led.Flush()
	<-ctrl.entered // the flush holds the QUEUED delta; the table still says PENDING

	returned := make(chan struct{})
	go func() {
		led.FlushTask(spec.ID)
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("FlushTask returned while the flush carrying the task's delta was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(ctrl.release)
	<-returned
	if got, _ := st.GetTask(spec.ID); got.Status != types.TaskQueued {
		t.Fatalf("follower after FlushTask = %v, want QUEUED", got.Status)
	}
}

// TestNotifyDeliversEndOfTenureOnOneChannel: one channel carries the
// end-of-tenure events of a set of tasks — a terminal stamp, a Disown —
// each exactly once; a task already terminal, or never owned, is delivered
// by the registration itself; a non-terminal stamp (a retry's reset to
// PENDING included) delivers nothing; and StopNotify leaves no registration
// behind for a later event to fire into.
func TestNotifyDeliversEndOfTenureOnOneChannel(t *testing.T) {
	st := gcs.NewStore(2)
	led := NewTaskLedger(st) // unstarted: transitions flush inline
	led.SetNode(types.NodeID{0xD2})
	finishes, moves, retries, stays, done, stranger := ownTask(20), ownTask(21), ownTask(22), ownTask(23), ownTask(24), ownTask(25)
	for _, id := range []types.TaskID{finishes, moves, retries, stays, done} {
		st.AddTask(types.TaskState{Spec: types.TaskSpec{ID: id}, Status: types.TaskPending, Owner: led.Node()})
		led.Adopt(id, 0, types.TaskPending)
	}
	// Terminal with its final delta not yet acked — the state between the
	// executor's stamp and the flush that drops the record. (A Transition
	// here would flush inline and drop it at once.)
	led.mu.Lock()
	led.tasks[done].status = types.TaskFinished
	led.mu.Unlock()

	ids := []types.TaskID{finishes, moves, retries, stays, done, stranger}
	ch := make(chan types.TaskID, len(ids))
	led.Notify(ch, ids...)
	got := map[types.TaskID]int{}
	drain := func() {
		for {
			select {
			case id := <-ch:
				got[id]++
			default:
				return
			}
		}
	}
	drain()
	if len(got) != 2 || got[done] != 1 || got[stranger] != 1 {
		t.Fatalf("registration delivered %v, want the terminal task and the one not owned, once each", got)
	}

	led.Transition(stays, types.TaskRunning, types.WorkerID{}, "")
	if n, retrying := led.TransitionRetry(retries, 1); n != 1 || !retrying {
		t.Fatalf("TransitionRetry = %d, %v", n, retrying)
	}
	drain()
	if len(got) != 2 {
		t.Fatalf("a non-terminal stamp delivered an event: %v", got)
	}

	led.Transition(finishes, types.TaskFinished, types.WorkerID{}, "")
	led.Disown(moves)
	led.Transition(retries, types.TaskFailed, types.WorkerID{}, "boom")
	drain()
	if len(got) != 5 || got[finishes] != 1 || got[moves] != 1 || got[retries] != 1 {
		t.Fatalf("after a finish, a disown and a failure: %v", got)
	}

	led.StopNotify(ch, ids...)
	left := 0
	for _, id := range ids {
		left += led.Watchers(id)
	}
	if left != 0 {
		t.Fatalf("%d registrations left after StopNotify", left)
	}
	led.Transition(stays, types.TaskFinished, types.WorkerID{}, "")
	drain()
	if got[stays] != 0 {
		t.Fatal("an unregistered channel still received an event")
	}
}

// TestReadoptedTaskWakesItsWatcher: FailTask buries a task it owns by
// adopting it anew at the claim's higher sequence, then stamping FAILED.
// The end watchers registered on the replaced record — the waiter slot's
// and the watch map's — must wake at that stamp.
func TestReadoptedTaskWakesItsWatcher(t *testing.T) {
	st := gcs.NewStore(2)
	led := NewTaskLedger(st) // unstarted: transitions flush inline
	led.SetNode(types.NodeID{0xD3})
	id := ownTask(30)
	st.AddTask(types.TaskState{Spec: types.TaskSpec{ID: id}, Status: types.TaskQueued, Owner: led.Node()})
	led.Adopt(id, 0, types.TaskQueued)
	slot, mapped := make(chan types.TaskID, 1), make(chan types.TaskID, 1)
	if !led.WatchEnd(slot, id) {
		t.Fatal("WatchEnd refused a task owned here and not terminal")
	}
	led.Notify(mapped, id)

	led.Adopt(id, 7, types.TaskFailed)
	if led.Watchers(id) != 2 {
		t.Fatalf("%d end watchers after the re-adoption, want 2", led.Watchers(id))
	}
	led.Transition(id, types.TaskFailed, types.WorkerID{}, "buried")
	for name, ch := range map[string]chan types.TaskID{"waiter slot": slot, "watch map": mapped} {
		select {
		case got := <-ch:
			if got != id {
				t.Fatalf("%s woke with %v, want %v", name, got, id)
			}
		default:
			t.Fatalf("the FAILED stamp after a re-adoption did not wake the %s's watcher", name)
		}
	}
	if led.WatchEnd(slot, id) {
		t.Fatal("WatchEnd registered on a terminal task")
	}
}

// finishWatch is a control-plane client that, as each FINISHED delta goes
// out, records whether every argument of every task the test knows has a
// lineage pin for each record in the table that takes it.
type finishWatch struct {
	*gcs.Sharded
	specs []types.TaskSpec
	short []string
}

func (w *finishWatch) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	for _, d := range deltas {
		if d.Spec == nil && d.Status == types.TaskFinished {
			for obj, n := range recordsTaking(w.Sharded, w.specs) {
				if info, _ := w.GetObject(obj); info.LineagePins < n {
					w.short = append(w.short, d.ID.String())
				}
			}
		}
	}
	return w.Sharded.ModifyTaskStates(node, deltas, op)
}

// recordsTaking counts, per object, the records in ctrl among specs' tasks
// that take it by reference.
func recordsTaking(ctrl gcs.API, specs []types.TaskSpec) map[types.ObjectID]int64 {
	n := make(map[types.ObjectID]int64)
	for _, spec := range specs {
		if st, ok := ctrl.GetTask(spec.ID); ok {
			for _, a := range st.Spec.DistinctDeps() {
				n[a]++
			}
		}
	}
	return n
}

// TestBirthPinsAcrossShardFailures: over two shards, one batch of births
// meets its second task's shard down, and another meets the shard of the
// object both its tasks take down. Once the ledger has redelivered, every
// object's lineage pins equal the records that take it — also after a
// purge — and no task's FINISHED delta went out ahead of its pins. In the
// first batch the two tasks share an object on the shard that stayed up:
// pins sent for the part of the batch that landed would spend the batch's
// token on that object, and the redelivery's pins would be a dedup hit.
func TestBirthPinsAcrossShardFailures(t *testing.T) {
	nw := transport.NewInproc(0)
	sup, err := gcs.NewSupervisor(gcs.SupervisorConfig{Shards: 2, Network: nw, MapAddr: "gcs-birthpins", DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	client, err := gcs.NewSharded(gcs.ShardedConfig{Network: nw, MapAddr: "gcs-birthpins", RetryWindow: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl := &finishWatch{Sharded: client}
	owner := ownNode(9)
	led := NewTaskLedger(ctrl)
	led.SetNode(owner)
	led.async = true // batched, with this test as the flusher

	const up, down = 0, 1
	next := uint64(0)
	taskOn := func(shard int, args ...types.ObjectID) types.TaskSpec {
		for {
			next++
			id := types.DeriveTaskID(types.NilTaskID, 9000+next)
			if client.Map().ShardForKey(gcs.TaskKey(id)) == shard {
				spec := types.TaskSpec{ID: id, Function: "f", NumReturns: 1}
				for _, a := range args {
					spec.Args = append(spec.Args, types.RefArg(a))
				}
				return spec
			}
		}
	}
	objectOn := func(shard int) types.ObjectID {
		for {
			next++
			if id := sweepObjID(byte(next)); client.Map().ShardForKey(gcs.ObjectKey(id)) == shard {
				client.AddObjectLocation(id, owner, 8) // a Put's record
				return id
			}
		}
	}
	bear := func(specs ...types.TaskSpec) {
		for _, spec := range specs {
			if adopted, _ := led.Birth(nil, &spec, led.ClockNs()); !adopted {
				t.Fatalf("birth of %v not adopted", spec.ID)
			}
			led.Transition(spec.ID, types.TaskFinished, types.NilWorkerID, "")
		}
		ctrl.specs = append(ctrl.specs, specs...)
	}
	settle := func(what string) {
		t.Helper()
		if led.Flush() {
			t.Fatalf("%s: the flush drained with a shard down", what)
		}
		if err := sup.RestartShard(down); err != nil {
			t.Fatal(err)
		}
		if !led.Flush() {
			t.Fatalf("%s: the redelivery did not drain", what)
		}
	}
	balanced := func(what string) {
		t.Helper()
		for obj, n := range recordsTaking(client, ctrl.specs) {
			if info, _ := client.GetObject(obj); info.LineagePins != n {
				t.Errorf("%s: %v has %d lineage pins, %d records take it", what, obj, info.LineagePins, n)
			}
		}
	}

	// A task shard down: a lands, b does not; both take x, on the shard
	// that stayed up, and b takes it twice.
	x := objectOn(up)
	a, b := taskOn(up, x), taskOn(down, x, x)
	sup.KillShard(down)
	bear(a, b)
	settle("a task shard down")
	balanced("after a task shard came back")

	// An object shard down: both tasks land, the object they take does not
	// get its pins.
	y := objectOn(down)
	c, e := taskOn(up, y), taskOn(up, y)
	bear(c, e)
	sup.KillShard(down)
	settle("an object shard down")
	balanced("after an object shard came back")

	if len(ctrl.short) != 0 {
		t.Errorf("FINISHED deltas sent ahead of their pins: %v", ctrl.short)
	}
	for _, spec := range ctrl.specs {
		if st, ok := client.GetTask(spec.ID); !ok || st.Status != types.TaskFinished {
			t.Fatalf("record of %v: %+v %v", spec.ID, st, ok)
		}
	}
	if _, left := client.PurgeTasks([]types.TaskID{a.ID, c.ID}); len(left) != 0 {
		t.Fatalf("purge left %v", left)
	}
	balanced("after a purge")
	if info, _ := client.GetObject(x); info.LineagePins != 1 {
		t.Fatalf("x has %d lineage pins after its first taker went, want 1", info.LineagePins)
	}
}
