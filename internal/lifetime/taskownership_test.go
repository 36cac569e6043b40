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
		if !client.AddTask(types.TaskState{Spec: spec, Status: types.TaskPending, Owner: owner}) {
			t.Fatalf("AddTask %d rejected", i)
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
	led.mu.Lock()
	left := len(led.watch)
	led.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d registrations left after StopNotify", left)
	}
	led.Transition(stays, types.TaskFinished, types.WorkerID{}, "")
	drain()
	if got[stays] != 0 {
		t.Fatal("an unregistered channel still received an event")
	}
}
