package gcs

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// wireLog records which methods a server registered and which methods a
// client actually put on the wire.
type wireLog struct {
	mu             sync.Mutex
	served, called map[string]bool
}

func newWireLog() *wireLog {
	return &wireLog{served: make(map[string]bool), called: make(map[string]bool)}
}

func (w *wireLog) note(set map[string]bool, method string) {
	w.mu.Lock()
	set[method] = true
	w.mu.Unlock()
}

// assertNoDrift is the guard that replaces keeping the server dispatch and
// the client in step by hand: no handler without a caller, no call without
// a handler.
func (w *wireLog) assertNoDrift(t *testing.T) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range slices.Sorted(maps.Keys(w.served)) {
		if !w.called[m] {
			t.Errorf("handler %q is registered but the client never calls it (or the conformance table misses it)", m)
		}
	}
	for _, m := range slices.Sorted(maps.Keys(w.called)) {
		if !w.served[m] {
			t.Errorf("client calls %q but no handler is registered", m)
		}
	}
}

type recordingRegistrar struct {
	Registrar
	log *wireLog
}

func (r recordingRegistrar) Handle(method string, h transport.Handler) {
	r.log.note(r.log.served, method)
	r.Registrar.Handle(method, h)
}

func (r recordingRegistrar) HandleStream(method string, h transport.StreamHandler) {
	r.log.note(r.log.served, method)
	r.Registrar.HandleStream(method, h)
}

type recordingNetwork struct {
	transport.Network
	log *wireLog
}

func (n recordingNetwork) Dial(addr string) (transport.Client, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return recordingClient{c, n.log}, nil
}

type recordingClient struct {
	transport.Client
	log *wireLog
}

func (c recordingClient) Call(method string, payload []byte) ([]byte, error) {
	c.log.note(c.log.called, method)
	return c.Client.Call(method, payload)
}

func (c recordingClient) OpenStream(method string, payload []byte) (transport.Stream, error) {
	c.log.note(c.log.called, method)
	return c.Client.OpenStream(method, payload)
}

// oneShard serves an in-memory Store as a one-shard control plane at addr
// (what `raynode -head` without -gcs-shards runs) and attaches the one
// transport client to it, with both ends of the wire recorded.
func oneShard(t *testing.T, nw transport.Network, addr string) (*Sharded, *Store, *wireLog) {
	t.Helper()
	store := NewStore(4)
	log := newWireLog()
	srv := transport.NewServer()
	l, err := nw.Listen(addr, srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	RegisterSingleShard(recordingRegistrar{srv, log}, store, l.Addr())
	client, err := NewSharded(ShardedConfig{Network: recordingNetwork{nw, log}, MapAddr: l.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client, store, log
}

// TestAPIConformance runs one script over every gcs.API method against
// every way of reaching a control plane. On the one-shard targets it is
// also the wire drift guard (wireLog.assertNoDrift).
func TestAPIConformance(t *testing.T) {
	type backing func(types.TaskID) (types.TaskState, bool)
	targets := []struct {
		name string
		open func(t *testing.T) (API, backing, *wireLog)
	}{
		{"store", func(t *testing.T) (API, backing, *wireLog) {
			s := NewStore(4)
			return s, s.GetTask, nil
		}},
		{"one-shard/inproc", func(t *testing.T) (API, backing, *wireLog) {
			c, s, log := oneShard(t, transport.NewInproc(0), "gcs")
			return c, s.GetTask, log
		}},
		{"one-shard/tcp", func(t *testing.T) (API, backing, *wireLog) {
			c, s, log := oneShard(t, transport.TCP{}, "127.0.0.1:0")
			return c, s.GetTask, log
		}},
		{"three-supervised-shards", func(t *testing.T) (API, backing, *wireLog) {
			sup, nw := newTestSupervisor(t, 3, 0)
			c := newTestSharded(t, nw)
			return c, func(id types.TaskID) (types.TaskState, bool) {
				return sup.Shard(c.Map().ShardForKey(TaskKey(id))).Store().GetTask(id)
			}, nil
		}},
	}
	for _, tgt := range targets {
		t.Run(tgt.name, func(t *testing.T) {
			api, backing, log := tgt.open(t)
			exerciseAPI(t, api, backing)
			if log != nil {
				log.assertNoDrift(t)
			}
		})
	}
}

// addRef applies one unattributed reference delta, untokened: a one-object
// ledger flush.
func addRef(api API, id types.ObjectID, delta int64) {
	api.ModifyObjectRefCounts(types.NilNodeID, map[types.ObjectID]int64{id: delta}, 0)
}

// refCount reads id's reference count back.
func refCount(t *testing.T, api API, id types.ObjectID) int64 {
	t.Helper()
	info, ok := api.GetObject(id)
	if !ok {
		t.Fatalf("object %v has no record", id)
	}
	return info.RefCount
}

// casJobOp is CASJobState under a token the caller holds: what a retry of
// the call sends after the first attempt's ack was lost.
func casJobOp(api API, id types.JobID, from []types.JobState, to types.JobState, op uint64) bool {
	switch a := api.(type) {
	case *Store:
		return a.CASJobStateOp(id, from, to, op)
	case *Sharded:
		won, _ := shardCall(a, rpcCASJob, JobKey(id), casJobReq{ID: id, From: from, To: to, Op: op})
		return won
	}
	panic("casJobOp: unknown control plane")
}

// recv waits for one message on sub.
func recv(t *testing.T, sub Sub, what string) []byte {
	t.Helper()
	select {
	case msg, ok := <-sub.C():
		if !ok {
			t.Fatalf("%s: subscription closed", what)
		}
		return msg
	case <-time.After(2 * time.Second):
		t.Fatalf("%s not delivered", what)
		return nil
	}
}

func exerciseAPI(t *testing.T, api API, backing func(types.TaskID) (types.TaskState, bool)) {
	t.Helper()
	n := nodeID(50)
	var job types.JobID
	job[0] = 7

	// Clock and liveness.
	if api.NowNs() <= 0 {
		t.Fatal("clock dead")
	}
	if !api.(Pinger).Ping() {
		t.Fatal("Ping failed on a healthy control plane")
	}

	// Task table.
	st := mkTask(500)
	st.Spec.Job = job
	if !api.AddTask(st) {
		t.Fatal("AddTask failed")
	}
	if api.AddTask(st) {
		t.Fatal("duplicate AddTask succeeded")
	}
	got, ok := api.GetTask(st.Spec.ID)
	if !ok || got.Spec.Function != "f" {
		t.Fatalf("GetTask: %+v %v", got, ok)
	}
	if stale := api.StalePendingTasks(0); len(stale) != 1 || stale[0].ID != st.Spec.ID {
		t.Fatalf("StalePendingTasks: %v", stale)
	}
	seq, ok := api.ClaimTask(st.Spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, n)
	if !ok || seq == 0 {
		t.Fatalf("ClaimTask: seq %d ok %v", seq, ok)
	}
	if _, ok := api.ClaimTask(st.Spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, nodeID(51)); ok {
		t.Fatal("second claim from the wrong state won")
	}
	owned := TaskFilter{Owner: n}
	if live, complete := api.ScanTasks(owned); !complete || len(live) != 1 || live[0].Spec.ID != st.Spec.ID {
		t.Fatalf("ScanTasks by owner: %v complete=%v", live, complete)
	}
	if live, complete := api.ScanTasks(TaskFilter{Owner: nodeID(51)}); !complete || len(live) != 0 {
		t.Fatalf("ScanTasks by a node that owns nothing: %v complete=%v", live, complete)
	}
	statusSub := api.Subscribe(TopicTaskStatus, st.Spec.ID)
	defer statusSub.Close()
	running := delta(st.Spec.ID, seq+1, types.TaskRunning)
	running.Owner, running.Node, running.Retries = n, n, 1
	if failed := api.ModifyTaskStates(n, []types.TaskStateDelta{running}, 41); len(failed) != 0 {
		t.Fatalf("ModifyTaskStates failed for %v", failed)
	}
	if msg := recv(t, statusSub, "task status"); types.TaskStatus(msg[0]) != types.TaskRunning {
		t.Fatalf("status payload %v", msg)
	}
	got, _ = api.GetTask(st.Spec.ID)
	if got.Status != types.TaskRunning || got.Node != n || got.Retries != 1 {
		t.Fatalf("after ModifyTaskStates: %+v", got)
	}
	if !casWon(api.ClaimTask(st.Spec.ID, []types.TaskStatus{types.TaskRunning}, types.TaskFinished, types.NilNodeID)) {
		t.Fatal("CAS lost")
	}
	if casWon(api.ClaimTask(st.Spec.ID, []types.TaskStatus{types.TaskRunning}, types.TaskFinished, types.NilNodeID)) {
		t.Fatal("CAS from wrong state won")
	}
	if got, _ = api.GetTask(st.Spec.ID); got.Status != types.TaskFinished || got.Owner != n {
		t.Fatalf("a plain CAS moved the owner or missed the status: %+v", got)
	}
	if all, complete := api.ScanTasks(TaskFilter{}); !complete || len(all) != 1 {
		t.Fatalf("ScanTasks of the whole table: %v complete=%v", all, complete)
	}
	if live, _ := api.ScanTasks(owned); len(live) != 0 {
		t.Fatalf("ScanTasks by owner kept a finished task: %v", live)
	}
	// Writes made through the API must be visible in the backing store.
	if _, ok := backing(st.Spec.ID); !ok {
		t.Fatal("write did not reach the backing store")
	}

	// Object table, lifetime and subscriptions.
	obj, obj2 := st.Spec.ReturnID(0), testObjectID(9)
	if failed := api.EnsureObjects(map[types.ObjectID]types.TaskID{obj: st.Spec.ID, obj2: st.Spec.ID}); len(failed) != 0 {
		t.Fatalf("EnsureObjects failed for %v", failed)
	}
	if info, ok := api.GetObject(obj2); !ok || info.Producer != st.Spec.ID || info.State != types.ObjectPending {
		t.Fatalf("EnsureObjects lineage edge: %+v %v", info, ok)
	}
	readySub := api.Subscribe(TopicObjectReady, obj)
	defer readySub.Close()
	api.AddObjectLocation(obj, n, 64)
	recv(t, readySub, "object-ready")
	api.MarkObjectSpilled(obj, n, true)
	info, ok := api.GetObject(obj)
	if !ok || info.State != types.ObjectReady || info.Size != 64 || !info.IsSpilledOn(n) {
		t.Fatalf("GetObject: %+v %v", info, ok)
	}
	gcSub := api.Subscribe(TopicObjectGC, types.NilObjectID)
	defer gcSub.Close()
	addRef(api, obj, 1)
	if failed := api.ModifyObjectRefCounts(n, map[types.ObjectID]int64{obj: 1}, 42); len(failed) != 0 {
		t.Fatalf("ModifyObjectRefCounts failed for %v", failed)
	}
	if c := refCount(t, api, obj); c != 2 {
		t.Fatalf("refcount = %d, want 2", c)
	}
	if swept := api.SweepDeadNodeRefs(n); swept != 1 {
		t.Fatalf("SweepDeadNodeRefs = %d, want the one object n held", swept)
	}
	addRef(api, obj, -1)
	if c := refCount(t, api, obj); c != 0 {
		t.Fatalf("refcount after sweep and release = %d", c)
	}
	var gcID types.ObjectID
	copy(gcID[:], recv(t, gcSub, "GC publish"))
	if gcID != obj {
		t.Fatalf("GC published %v, want %v", gcID, obj)
	}
	if len(api.Objects()) != 2 {
		t.Fatal("Objects scan wrong")
	}

	// Spill pub/sub.
	spillSub := api.Subscribe(TopicSpill, types.NilTaskID)
	defer spillSub.Close()
	api.PublishSpill(st.Spec)
	if spec, err := DecodeSpillSpec(recv(t, spillSub, "spill")); err != nil || spec.ID != st.Spec.ID {
		t.Fatalf("spill payload: %v %v", spec.ID, err)
	}

	// Node table.
	nodeSub := api.Subscribe(TopicNodes, types.NilNodeID)
	defer nodeSub.Close()
	api.RegisterNode(types.NodeInfo{ID: n, Addr: "w1", Total: types.CPU(2)})
	recv(t, nodeSub, "node event")
	api.Heartbeat(n, 3, types.CPU(1), types.StoreStats{UsedBytes: 64})
	ninfo, ok := api.GetNode(n)
	if !ok || ninfo.QueueLen != 3 || ninfo.Store.UsedBytes != 64 {
		t.Fatalf("GetNode: %+v %v", ninfo, ok)
	}
	if !api.CASNodeState(n, []types.NodeState{types.NodeActive}, types.NodeDraining) {
		t.Fatal("drain CAS lost")
	}
	if api.CASNodeState(n, []types.NodeState{types.NodeActive}, types.NodeDraining) {
		t.Fatal("second drain CAS won")
	}
	api.MarkNodeDead(n)
	if ninfo, _ = api.GetNode(n); ninfo.Alive {
		t.Fatal("node still alive")
	}
	if len(api.Nodes()) != 1 {
		t.Fatal("Nodes scan wrong")
	}

	// Placement-group table.
	groupSub := api.Subscribe(TopicPlacementGroups, types.NilPlacementGroupID)
	defer groupSub.Close()
	group := testGroupSpec(4, 1)
	if !api.CreatePlacementGroup(group) || api.CreatePlacementGroup(group) {
		t.Fatal("CreatePlacementGroup is not exactly-once")
	}
	if ev, err := DecodeGroupEvent(recv(t, groupSub, "group event")); err != nil || ev.Spec.ID != group.ID {
		t.Fatalf("group event: %+v %v", ev, err)
	}
	pending, placing := []types.PlacementGroupState{types.GroupPending}, []types.PlacementGroupState{types.GroupPlacing}
	if !api.CASPlacementGroupState(group.ID, pending, types.GroupPlacing, nil, 7) {
		t.Fatal("gang claim lost")
	}
	if api.CASPlacementGroupState(group.ID, placing, types.GroupPlaced, []types.NodeID{n}, 8) {
		t.Fatal("commit under a stale claim token won")
	}
	if !api.CASPlacementGroupState(group.ID, placing, types.GroupPlaced, []types.NodeID{n}, 7) {
		t.Fatal("commit under the recorded claim lost")
	}
	if ginfo, ok := api.GetPlacementGroup(group.ID); !ok || ginfo.State != types.GroupPlaced || ginfo.NodeFor(0) != n {
		t.Fatalf("GetPlacementGroup: %+v %v", ginfo, ok)
	}
	if !api.CASPlacementGroupState(group.ID, []types.PlacementGroupState{types.GroupPlaced}, types.GroupPending, nil, 0) {
		t.Fatal("rollback CAS lost")
	}
	if len(api.PlacementGroups()) != 1 {
		t.Fatal("PlacementGroups scan wrong")
	}
	if !removeGroup(api, group.ID) || removeGroup(api, group.ID) {
		t.Fatal("removal is not terminal")
	}
	if ginfo, _ := api.GetPlacementGroup(group.ID); ginfo.State != types.GroupRemoved || ginfo.RemovedNs == 0 {
		t.Fatalf("after removal: %+v", ginfo)
	}

	// Job table and bulk reclaim.
	jobSub := api.Subscribe(TopicJobs, types.NilJobID)
	defer jobSub.Close()
	if !api.CreateJob(types.JobSpec{ID: job, Name: "j"}) || api.CreateJob(types.JobSpec{ID: job, Name: "j"}) {
		t.Fatal("CreateJob is not exactly-once")
	}
	if ev, err := DecodeJobEvent(recv(t, jobSub, "job event")); err != nil || ev.Spec.ID != job {
		t.Fatalf("job event: %+v %v", ev, err)
	}
	if jinfo, ok := api.GetJob(job); !ok || jinfo.State != types.JobRunning {
		t.Fatalf("GetJob: %+v %v", jinfo, ok)
	}
	if len(api.Jobs()) != 1 {
		t.Fatal("Jobs scan wrong")
	}
	if !api.AddTask(mkTask(501)) { // in no job
		t.Fatal("AddTask failed")
	}
	if tasks, complete := api.ScanTasks(TaskFilter{Job: job}); !complete || len(tasks) != 1 || tasks[0].Spec.ID != st.Spec.ID {
		t.Fatalf("ScanTasks by job: %v complete=%v", tasks, complete)
	}
	stopped := []types.JobState{types.JobStopped}
	if api.CASJobState(job, stopped, types.JobPurged) {
		t.Fatal("a running job was purged")
	}
	if !api.CASJobState(job, []types.JobState{types.JobRunning}, types.JobStopping) ||
		api.CASJobState(job, []types.JobState{types.JobRunning}, types.JobStopping) ||
		!api.CASJobState(job, []types.JobState{types.JobStopping}, types.JobStopped) {
		t.Fatal("job lifecycle CAS wrong")
	}
	if failed := api.ForceReleaseObjects([]types.ObjectID{obj, obj2}); len(failed) != 0 {
		t.Fatalf("ForceReleaseObjects failed for %v", failed)
	}
	// obj still has its copy on n, so only obj2 (no copies, no refs) drains.
	// PurgeObjects is retire's, not the API's: every target has it.
	ops := api.(retireOps)
	if left := ops.PurgeObjects([]types.ObjectID{obj, obj2}); len(left) != 1 || left[0] != obj {
		t.Fatalf("PurgeObjects left %v, want [%v]", left, obj)
	}
	api.RemoveObjectLocation(obj, n)
	if left := ops.PurgeObjects([]types.ObjectID{obj}); len(left) != 0 {
		t.Fatalf("PurgeObjects left %v after the last copy went", left)
	}
	if _, ok := api.GetObject(obj); ok {
		t.Fatal("purged object still readable")
	}
	if purged := PurgeAndUnpin(api, []types.TaskID{st.Spec.ID}); purged != 1 {
		t.Fatalf("PurgeAndUnpin of the job's finished task = %d, want 1", purged)
	}
	if !casJobOp(api, job, stopped, types.JobPurged, 64) || !casJobOp(api, job, stopped, types.JobPurged, 64) {
		t.Fatal("the purge CAS or its retry under the same token lost")
	}
	purged, _ := api.GetJob(job)
	if api.CASJobState(job, stopped, types.JobPurged) || api.CASJobState(job, []types.JobState{types.JobPurged}, types.JobPurged) {
		t.Fatal("a purged job was purged again")
	}
	if jinfo, _ := api.GetJob(job); jinfo.State != types.JobPurged || !jinfo.Stopped() || jinfo.PurgedNs == 0 || jinfo.PurgedNs != purged.PurgedNs {
		t.Fatalf("after the purge: %+v, first stamp %d", jinfo, purged.PurgedNs)
	}

	// Record lifetime: t1 -> a, t2(a, a) -> b. A record goes only when
	// nothing can ask for it again, and then the whole released chain goes.
	t1, t2 := mkTask(510), mkTask(511)
	a, b := t1.Spec.ReturnID(0), t2.Spec.ReturnID(0)
	t2.Spec.Args = []types.Arg{types.RefArg(a), types.ValueArg([]byte{1}), types.RefArg(a)}
	for _, ts := range []types.TaskState{t1, t2} {
		if !api.AddTask(ts) {
			t.Fatal("AddTask failed")
		}
		out := ts.Spec.ReturnID(0)
		api.EnsureObjects(map[types.ObjectID]types.TaskID{out: ts.Spec.ID})
		api.AddObjectLocation(out, n, 8)
		addRef(api, out, 1)
	}
	pin := map[types.ObjectID]int64{a: 1}
	if failed := api.PinObjects(pin, 61); len(failed) != 0 {
		t.Fatalf("PinObjects failed for %v", failed)
	}
	api.PinObjects(pin, 61) // redelivered: the token is on the record
	if info, _ := api.GetObject(a); info.LineagePins != 1 {
		t.Fatalf("LineagePins = %d after one pin delivered twice, want 1", info.LineagePins)
	}
	finish := func(id types.TaskID) {
		if !casWon(api.ClaimTask(id, []types.TaskStatus{types.TaskPending}, types.TaskFinished, types.NilNodeID)) {
			t.Fatal("finishing CAS lost")
		}
	}
	refused := func(what string, got, want Retired) {
		t.Helper()
		if got.Tasks != 0 || got.Objects != 0 || got.Referenced != want.Referenced || got.Located != want.Located ||
			got.Pinned != want.Pinned || !slices.Equal(got.Again, want.Again) {
			t.Fatalf("Retire of a %s object = %+v, want %+v", what, got, want)
		}
	}
	finish(t1.Spec.ID)
	refused("referenced", api.Retire([]types.ObjectID{a}), Retired{Referenced: 1})
	addRef(api, a, -1)
	refused("located", api.Retire([]types.ObjectID{a}), Retired{Located: 1})
	api.RemoveObjectLocation(a, n)
	refused("pinned", api.Retire([]types.ObjectID{a}), Retired{Pinned: 1})
	addRef(api, b, -1)
	api.RemoveObjectLocation(b, n)
	refused("dead object of an unfinished task", api.Retire([]types.ObjectID{b}), Retired{Again: []types.ObjectID{b}})
	if args, left := api.PurgeTasks([]types.TaskID{t2.Spec.ID}); len(args) != 0 || len(left) != 1 {
		t.Fatalf("PurgeTasks of an unfinished task = %v, %v, want it left", args, left)
	}
	finish(t2.Spec.ID)
	// b is dead and its producer terminal: t2 and b go, which unpins a, so
	// t1 and a go in the same call.
	if got := api.Retire([]types.ObjectID{b}); got.Tasks != 2 || got.Objects != 2 {
		t.Fatalf("Retire of a released chain = %+v, want 2 tasks and 2 objects", got)
	}
	for _, ts := range []types.TaskState{t1, t2} {
		if _, ok := api.GetTask(ts.Spec.ID); ok {
			t.Fatalf("task %v survived the retire of its chain", ts.Spec.ID)
		}
		if _, ok := api.GetObject(ts.Spec.ReturnID(0)); ok {
			t.Fatalf("return of %v survived the retire of its chain", ts.Spec.ID)
		}
	}
	if got := api.Retire([]types.ObjectID{a, b}); got.Tasks != 0 || got.Objects != 0 || len(got.Again) != 0 {
		t.Fatalf("second Retire = %+v, want nothing to do", got)
	}
	// A retire cut short after its task purge left a dead object record
	// without a producer; proposing the object again finishes the job.
	t3 := mkTask(512)
	t3.Spec.Args = []types.Arg{types.RefArg(obj2)}
	c := t3.Spec.ReturnID(0)
	api.AddTask(t3)
	api.EnsureObjects(map[types.ObjectID]types.TaskID{c: t3.Spec.ID})
	api.ModifyObjectRefCounts(n, map[types.ObjectID]int64{c: 0}, 62) // retained and released
	finish(t3.Spec.ID)
	if args, left := api.PurgeTasks([]types.TaskID{t3.Spec.ID}); !slices.Equal(args, []types.ObjectID{obj2}) || len(left) != 0 {
		t.Fatalf("PurgeTasks = %v, %v, want the one argument and nothing left", args, left)
	}
	api.PinObjects(map[types.ObjectID]int64{obj2: -1}, 63) // nothing to unpin: no record is started, no count goes negative
	if _, ok := api.GetObject(obj2); ok {
		t.Fatal("an unpin started a record")
	}
	if got := api.Retire([]types.ObjectID{c}); got.Tasks != 0 || got.Objects != 1 {
		t.Fatalf("Retire after a cut-short one = %+v, want the one object record", got)
	}
	if _, ok := api.GetObject(c); ok {
		t.Fatal("orphaned object record survived")
	}

	// Births: a spec-carrying delta inserts its record once and gives the
	// return its producer edge; its redelivery under the same token is its
	// own, and a birth under another token finds the record and is refused.
	born := mkTask(520)
	birth := types.TaskStateDelta{ID: born.Spec.ID, Owner: n, Status: types.TaskPending, Node: n, Spec: &born.Spec}
	finished := delta(born.Spec.ID, 1, types.TaskFinished)
	finished.Owner = n
	for _, op := range []uint64{70, 70} {
		if failed := api.ModifyTaskStates(n, []types.TaskStateDelta{birth}, op); len(failed) != 0 {
			t.Fatalf("birth under token %d not applied: %v", op, failed)
		}
	}
	if failed := api.ModifyTaskStates(n, []types.TaskStateDelta{birth}, 71); !slices.Equal(failed, []types.TaskID{born.Spec.ID}) {
		t.Fatalf("a second birth of a recorded task reported %v, want it refused", failed)
	}
	api.ModifyTaskStates(n, []types.TaskStateDelta{finished}, 72)
	if got, ok := api.GetTask(born.Spec.ID); !ok || got.Status != types.TaskFinished || got.Owner != n || got.Spec.Function != "f" {
		t.Fatalf("born record: %+v %v", got, ok)
	}
	if info, ok := api.GetObject(born.Spec.ReturnID(0)); !ok || info.Producer != born.Spec.ID {
		t.Fatalf("born task's return: %+v %v", info, ok)
	}

	// Events, telemetry.
	api.LogEvent(types.Event{Kind: "custom", Node: n})
	if !slices.ContainsFunc(api.Events(), func(ev types.Event) bool { return ev.Kind == "custom" }) {
		t.Fatal("event lost")
	}
	sink := api.(TelemetrySink)
	sink.PublishTelemetry(n, metrics.Snapshot{Counters: map[string]int64{"c": 3}}, []metrics.SpanRecord{{Name: "s"}})
	if snaps := sink.Telemetry(); len(snaps) != 1 || snaps[0].Node != n || snaps[0].Snap.Counters["c"] != 3 {
		t.Fatalf("Telemetry: %+v", snaps)
	}
	if spans := sink.Spans(); len(spans) != 1 || spans[0].Name != "s" {
		t.Fatalf("Spans: %+v", spans)
	}
}

// TestOneShardTaskStatusSubscription: the subscription is acked by the
// service before Subscribe returns, so a publish made right after cannot be
// missed.
func TestOneShardTaskStatusSubscription(t *testing.T) {
	api, _, _ := oneShard(t, transport.NewInproc(0), "gcs")
	st := mkTask(600)
	api.AddTask(st)
	sub := api.Subscribe(TopicTaskStatus, st.Spec.ID)
	defer sub.Close()
	api.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{delta(st.Spec.ID, 1, types.TaskFinished)}, 0)
	if msg := recv(t, sub, "status"); types.TaskStatus(msg[0]) != types.TaskFinished {
		t.Fatalf("status payload %v", msg)
	}
}

func TestOneShardSubCloseIdempotent(t *testing.T) {
	api, _, _ := oneShard(t, transport.NewInproc(0), "gcs")
	sub := api.Subscribe(TopicSpill, types.NilTaskID)
	sub.Close()
	sub.Close()
}

// TestOneShardRejectsBadSubscription: a subscription payload off the wire
// with an unknown topic or the wrong length is refused — the stream ends
// without the ack a subscriber waits for.
func TestOneShardRejectsBadSubscription(t *testing.T) {
	nw := transport.NewInproc(0)
	oneShard(t, nw, "gcs")
	c, err := nw.Dial("gcs")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, payload := range [][]byte{nil, subPayload(TopicJobs+1, types.NilTaskID), subPayload(TopicSpill, types.NilTaskID)[:5]} {
		stream, err := c.OpenStream(StreamSub, payload)
		if err != nil {
			continue
		}
		if _, err := stream.Recv(); err == nil {
			t.Errorf("subscription %x acked", payload)
		}
		stream.Close()
	}
}

// TestFanOutObserved: fan-out reads go through the same per-attempt RPC
// primitive as keyed calls, so a scan is timed per shard and a scan against
// a killed shard bumps that shard's error counter.
func TestFanOutObserved(t *testing.T) {
	sup, nw := newTestSupervisor(t, 2, 0)
	reg := metrics.NewRegistry()
	s, err := NewSharded(ShardedConfig{Network: nw, MapAddr: "gcs", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.ScanTasks(TaskFilter{})
	snap := reg.Snapshot()
	for _, shard := range []string{"0", "1"} {
		if h := snap.Hists["gcs.rpc.ns;method="+rpcTasks.name+";shard="+shard]; h.Count != 1 {
			t.Fatalf("shard %s: scan observed %d times, want 1", shard, h.Count)
		}
	}
	errs := "gcs.rpc.errors;method=" + rpcTasks.name + ";shard=1"
	if got := snap.Counters[errs]; got != 0 {
		t.Fatalf("%s = %d on a healthy control plane", errs, got)
	}

	sup.KillShard(1)
	var job types.JobID
	job[0] = 7
	for _, f := range []TaskFilter{{}, {Owner: nodeID(50)}, {Job: job}} {
		if _, complete := s.ScanTasks(f); complete {
			t.Fatalf("ScanTasks(%+v) reported a complete view with a shard killed", f)
		}
	}
	if got := reg.Snapshot().Counters[errs]; got == 0 {
		t.Fatalf("%s not bumped by a fan-out read against a killed shard", errs)
	}
}
