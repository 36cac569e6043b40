package gcs

import (
	"testing"
	"time"

	"repro/internal/types"
)

func mkTask(i uint64) types.TaskState {
	id := types.DeriveTaskID(types.NilTaskID, i)
	return types.TaskState{Spec: types.TaskSpec{ID: id, Function: "f", NumReturns: 1}}
}

func nodeID(i uint64) types.NodeID {
	return types.NodeID(types.DeriveTaskID(types.NilTaskID, 1000+i))
}

// stalePending is the rescue sweep's scan: the PENDING records whose latest
// transition is at least olderThanNs old.
func stalePending(api API, olderThanNs int64) []types.TaskState {
	out, _ := api.ScanTasks(TaskFilter{Pending: true, PendingForNs: olderThanNs})
	return out
}

// casWon is whether a ClaimTask with a nil owner — the plain status CAS —
// won.
func casWon(_ uint64, ok bool) bool { return ok }

func TestAddTaskExactlyOnce(t *testing.T) {
	s := NewStore(4)
	st := mkTask(1)
	if !s.AddTask(st) {
		t.Fatal("first AddTask failed")
	}
	if s.AddTask(st) {
		t.Fatal("duplicate AddTask succeeded — lineage dedup broken")
	}
	got, ok := s.GetTask(st.Spec.ID)
	if !ok || got.Spec.Function != "f" {
		t.Fatalf("GetTask = %+v, %v", got, ok)
	}
	if got.SubmittedNs == 0 {
		t.Fatal("submit timestamp not set")
	}
}

// delta builds a one-task ledger flush for the unowned records mkTask makes
// (a nil Owner on both sides passes the store's tenure fence).
func delta(id types.TaskID, seq uint64, status types.TaskStatus) types.TaskStateDelta {
	return types.TaskStateDelta{ID: id, Seq: seq, Status: status}
}

func TestModifyTaskStatesTimestampsAndPublish(t *testing.T) {
	s := NewStore(4)
	st := mkTask(2)
	s.AddTask(st)

	n := nodeID(1)
	w := types.WorkerID(types.DeriveTaskID(types.NilTaskID, 2000))
	running := delta(st.Spec.ID, 1, types.TaskRunning)
	running.Node, running.Worker, running.StartedNs = n, w, 300
	s.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{running}, 0)
	got, _ := s.GetTask(st.Spec.ID)
	if got.Status != types.TaskRunning || got.Node != n || got.Worker != w {
		t.Fatalf("state after running: %+v", got)
	}
	if got.StartedNs != 300 {
		t.Fatalf("owner's start timestamp not taken as given: %d", got.StartedNs)
	}

	finished := delta(st.Spec.ID, 2, types.TaskFinished)
	finished.FinishedNs = 400
	s.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{finished}, 0)
	got, _ = s.GetTask(st.Spec.ID)
	if got.FinishedNs != 400 || got.StartedNs != 300 {
		t.Fatalf("timestamps after finish: started=%d finished=%d", got.StartedNs, got.FinishedNs)
	}
	if got.Node != n {
		t.Fatal("nil node ID overwrote recorded node")
	}
}

func TestModifyTaskStatesError(t *testing.T) {
	s := NewStore(2)
	st := mkTask(3)
	s.AddTask(st)
	failed := delta(st.Spec.ID, 1, types.TaskFailed)
	failed.Error = "boom"
	s.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{failed}, 0)
	got, _ := s.GetTask(st.Spec.ID)
	if got.Status != types.TaskFailed || got.Error != "boom" {
		t.Fatalf("failed state: %+v", got)
	}
}

// TestTaskRetriesRideDeltas: the retry count is part of the owner's
// full-state delta and only ever grows in the follower.
func TestTaskRetriesRideDeltas(t *testing.T) {
	s := NewStore(2)
	st := mkTask(4)
	s.AddTask(st)
	for seq, retries := range []int{1, 2, 1} {
		d := delta(st.Spec.ID, uint64(seq+1), types.TaskPending)
		d.Retries = retries
		s.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{d}, 0)
	}
	if got, _ := s.GetTask(st.Spec.ID); got.Retries != 2 {
		t.Fatalf("retries = %d, want 2", got.Retries)
	}
	unknown := delta(types.DeriveTaskID(types.NilTaskID, 999), 1, types.TaskPending)
	unknown.Retries = 1
	if failed := s.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{unknown}, 0); len(failed) != 0 {
		t.Fatalf("delta for an unknown task must be consumed, got failed=%v", failed)
	}
}

func TestObjectLifecycle(t *testing.T) {
	s := NewStore(4)
	task := types.DeriveTaskID(types.NilTaskID, 5)
	obj := types.ObjectIDForReturn(task, 0)
	s.EnsureObject(obj, task)

	info, ok := s.GetObject(obj)
	if !ok || info.State != types.ObjectPending || info.Producer != task {
		t.Fatalf("pending object: %+v, %v", info, ok)
	}

	n1, n2 := nodeID(1), nodeID(2)
	s.AddObjectLocation(obj, n1, 128)
	info, _ = s.GetObject(obj)
	if info.State != types.ObjectReady || info.Size != 128 || !info.HasLocation(n1) {
		t.Fatalf("ready object: %+v", info)
	}

	s.AddObjectLocation(obj, n2, 128)
	s.AddObjectLocation(obj, n2, 128) // idempotent
	info, _ = s.GetObject(obj)
	if len(info.Locations) != 2 {
		t.Fatalf("locations = %v", info.Locations)
	}

	s.RemoveObjectLocation(obj, n1)
	info, _ = s.GetObject(obj)
	if info.State != types.ObjectReady || len(info.Locations) != 1 {
		t.Fatalf("after one removal: %+v", info)
	}

	s.RemoveObjectLocation(obj, n2)
	info, _ = s.GetObject(obj)
	if info.State != types.ObjectLost {
		t.Fatalf("object should be LOST, is %v", info.State)
	}
	if info.Producer != task {
		t.Fatal("lineage edge lost")
	}
}

func TestAddLocationWithoutEnsure(t *testing.T) {
	s := NewStore(2)
	obj := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 6), 0)
	s.AddObjectLocation(obj, nodeID(3), 64)
	info, ok := s.GetObject(obj)
	if !ok || info.State != types.ObjectReady {
		t.Fatalf("object: %+v, %v", info, ok)
	}
}

func TestSpillPubSub(t *testing.T) {
	s := NewStore(4)
	sub := s.Subscribe(TopicSpill, types.NilTaskID)
	defer sub.Close()
	spec := mkTask(7).Spec
	s.PublishSpill(spec)
	select {
	case raw := <-sub.C():
		got, err := DecodeSpillSpec(raw)
		if err != nil || got.ID != spec.ID {
			t.Fatalf("spill decode: %v %v", got.ID, err)
		}
	case <-time.After(time.Second):
		t.Fatal("spill not delivered")
	}
}

func TestNodeTable(t *testing.T) {
	s := NewStore(4)
	sub := s.Subscribe(TopicNodes, types.NilNodeID)
	defer sub.Close()
	n := nodeID(10)
	s.RegisterNode(types.NodeInfo{ID: n, Addr: "inproc:1", Total: types.CPU(4)})
	select {
	case <-sub.C():
	case <-time.After(time.Second):
		t.Fatal("node-join not published")
	}
	info, ok := s.GetNode(n)
	if !ok || !info.Alive || info.Total[types.ResCPU] != 4 {
		t.Fatalf("node: %+v, %v", info, ok)
	}

	s.Heartbeat(n, 3, types.CPU(2), types.StoreStats{UsedBytes: 128, SpilledBytes: 32})
	info, _ = s.GetNode(n)
	if info.QueueLen != 3 || info.Available[types.ResCPU] != 2 || info.Store.SpilledBytes != 32 {
		t.Fatalf("after heartbeat: %+v", info)
	}

	s.MarkNodeDead(n)
	select {
	case <-sub.C():
	case <-time.After(time.Second):
		t.Fatal("node-dead not published")
	}
	info, _ = s.GetNode(n)
	if info.Alive {
		t.Fatal("node still alive")
	}
	if len(s.Nodes()) != 1 {
		t.Fatal("Nodes scan wrong")
	}
}

func TestHeartbeatUnknownNodeIgnored(t *testing.T) {
	s := NewStore(2)
	s.Heartbeat(nodeID(99), 1, nil, types.StoreStats{}) // must not panic or create entries
	if len(s.Nodes()) != 0 {
		t.Fatal("heartbeat created a node record")
	}
}

func TestEventLogOrderingAndToggle(t *testing.T) {
	s := NewStore(4)
	n := nodeID(1)
	for i := 0; i < 5; i++ {
		s.LogEvent(types.Event{Kind: "k", Node: n})
	}
	evs := s.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeNs < evs[i-1].TimeNs {
			t.Fatal("events out of time order")
		}
	}
	s.SetEventLogging(false)
	s.LogEvent(types.Event{Kind: "k2", Node: n})
	if len(s.Events()) != 5 {
		t.Fatal("event logged while disabled")
	}
}

func TestTasksScanOrdered(t *testing.T) {
	s := NewStore(8)
	for i := uint64(0); i < 10; i++ {
		s.AddTask(mkTask(i))
	}
	tasks := s.Tasks()
	if len(tasks) != 10 {
		t.Fatalf("Tasks = %d", len(tasks))
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i].SubmittedNs < tasks[i-1].SubmittedNs {
			t.Fatal("tasks out of submission order")
		}
	}
}

func TestNowNsMonotonic(t *testing.T) {
	s := NewStore(1)
	a := s.NowNs()
	time.Sleep(time.Millisecond)
	b := s.NowNs()
	if b <= a {
		t.Fatal("clock not advancing")
	}
}

// TestNodeDrainStateMachine pins the node-table drain CAS (DESIGN.md §10):
// Active→Draining→Drained with rollback, publish on every win, DrainNs
// stamping, and the §7-style idempotency-token dedup.
func TestNodeDrainStateMachine(t *testing.T) {
	s := NewStore(2)
	var id types.NodeID
	id[0] = 9
	s.RegisterNode(types.NodeInfo{ID: id, Addr: "n", Total: types.CPU(4)})

	sub := s.Subscribe(TopicNodes, types.NilNodeID)
	defer sub.Close()

	if s.CASNodeState(id, []types.NodeState{types.NodeDraining}, types.NodeDrained) {
		t.Fatal("Drained from Active must lose")
	}
	if !s.CASNodeState(id, []types.NodeState{types.NodeActive}, types.NodeDraining) {
		t.Fatal("Active→Draining failed")
	}
	info, _ := s.GetNode(id)
	if info.State != types.NodeDraining || info.DrainNs <= 0 {
		t.Fatalf("bad record after drain mark: %+v", info)
	}
	select {
	case raw := <-sub.C():
		ev, err := DecodeNodeEvent(raw)
		if err != nil || ev.State != types.NodeDraining {
			t.Fatalf("bad drain publish: %+v err=%v", ev, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain transition did not publish")
	}
	// Concurrent second drain decision loses.
	if s.CASNodeState(id, []types.NodeState{types.NodeActive}, types.NodeDraining) {
		t.Fatal("second Active→Draining must lose")
	}
	// Rollback clears the drain stamp.
	if !s.CASNodeState(id, []types.NodeState{types.NodeDraining}, types.NodeActive) {
		t.Fatal("rollback failed")
	}
	if info, _ := s.GetNode(id); info.State != types.NodeActive || info.DrainNs != 0 {
		t.Fatalf("rollback left residue: %+v", info)
	}
	// Tokenized retry across a "crash": the same op token is reported won
	// without re-applying; a fresh token from the wrong state loses.
	const op = 0xD12A
	if !s.CASNodeStateOp(id, []types.NodeState{types.NodeActive}, types.NodeDraining, op) {
		t.Fatal("tokened drain failed")
	}
	if !s.CASNodeStateOp(id, []types.NodeState{types.NodeActive}, types.NodeDraining, op) {
		t.Fatal("retried CAS with same token must be reported won")
	}
	if s.CASNodeStateOp(id, []types.NodeState{types.NodeActive}, types.NodeDraining, op+1) {
		t.Fatal("fresh CAS from wrong state must lose")
	}
	// Heartbeats must not disturb the drain state.
	s.Heartbeat(id, 3, types.CPU(1), types.StoreStats{})
	if info, _ := s.GetNode(id); info.State != types.NodeDraining {
		t.Fatalf("heartbeat clobbered drain state: %+v", info)
	}
	if !s.CASNodeState(id, []types.NodeState{types.NodeDraining}, types.NodeDrained) {
		t.Fatal("Draining→Drained failed")
	}
}
