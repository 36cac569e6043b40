package gcs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kv"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestEventLogIsARing: a node's event list holds its newest eventRing
// events, in order, however many were logged.
func TestEventLogIsARing(t *testing.T) {
	s := NewStore(4)
	n := testNodeID(1)
	for i := 0; i < 10*eventRing; i++ {
		s.LogEvent(types.Event{Kind: "e", Node: n, Detail: fmt.Sprint(i)})
	}
	evs := s.Events()
	if len(evs) != eventRing {
		t.Fatalf("%d events kept of %d logged, want exactly %d", len(evs), 10*eventRing, eventRing)
	}
	for i, ev := range evs {
		if want := fmt.Sprint(9*eventRing + i); ev.Detail != want {
			t.Fatalf("event %d is #%s, want #%s: not the newest, in order", i, ev.Detail, want)
		}
	}
}

// lifecycle walks n single-return tasks through what a released no-op
// leaves in the tables — submitted, produced, retained and released,
// collected, finished — and proposes each output for retiring.
func lifecycle(api API, node types.NodeID, base, n int) {
	objs := make([]types.ObjectID, n)
	for i := range objs {
		st := mkTask(uint64(base + i))
		st.Owner = node
		objs[i] = st.Spec.ReturnID(0)
		addTask(api, st)
		api.AddObjectLocation(objs[i], node, 8)
		api.ModifyObjectRefCounts(node, map[types.ObjectID]int64{objs[i]: 0}, uint64(base+i+1))
		api.RemoveObjectLocation(objs[i], node)
		api.ClaimTask(st.Spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskFinished, types.NilNodeID)
	}
	api.Retire(objs)
}

// TestCheckpointShrinksWithTheLiveSet: retired records are deletes in the
// journal, so a checkpoint cut after thousands of tasks came and went is
// the size of one cut before them, and a shard restarted from it recovers
// none of them.
func TestCheckpointShrinksWithTheLiveSet(t *testing.T) {
	dir := t.TempDir()
	svc, err := StartShard(ShardConfig{Index: 0, Addr: "shard-life", Network: transport.NewInproc(0), DataDir: dir, DisableEventLog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	node := testNodeID(1)
	snapshot := func() int64 {
		t.Helper()
		if err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, kv.SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// One live task, held, so the comparison is not against an empty file.
	held := mkTask(1)
	svc.Store().AddTask(held)
	svc.Store().EnsureObject(held.Spec.ReturnID(0), held.Spec.ID)
	addRef(svc.Store(), held.Spec.ReturnID(0), 1)
	before := snapshot()
	lifecycle(svc.Store(), node, 100, 5000)
	if tasks, objects := svc.Store().Records(); tasks != 1 || objects != 1 {
		t.Fatalf("%d task and %d object records after every released task was retired, want the held one of each", tasks, objects)
	}
	after := snapshot()
	if after > 2*before {
		t.Fatalf("checkpoint grew %d -> %d bytes over 5000 retired tasks, want within 2x", before, after)
	}
	svc.Kill()
	if err := svc.Restart(); err != nil {
		t.Fatal(err)
	}
	s := svc.Store()
	if tasks, objects := s.Records(); tasks != 1 || objects != 1 {
		t.Fatalf("restart recovered %d task and %d object records, want only the held one of each", tasks, objects)
	}
	if len(s.GCEligibleObjects()) != 0 || len(stalePending(s, 0)) != 1 {
		t.Fatalf("markers after restart: %d gc-eligible, %d pending", len(s.GCEligibleObjects()), len(stalePending(s, 0)))
	}
}

// TestRetireAcrossAShardRestart: a retire that finds its producer's shard
// down concludes nothing — the object is to be proposed again — and the
// same proposal after the restart retires both records.
func TestRetireAcrossAShardRestart(t *testing.T) {
	sup, nw := newTestSupervisor(t, 3, 0)
	c := newTestSharded(t, nw)
	node := testNodeID(1)
	// A task whose record and whose return's record live on different shards.
	var st types.TaskState
	for i := uint64(0); ; i++ {
		st = mkTask(700 + i)
		if c.Map().ShardForKey(TaskKey(st.Spec.ID)) != c.Map().ShardForKey(ObjectKey(st.Spec.ReturnID(0))) {
			break
		}
	}
	obj := st.Spec.ReturnID(0)
	addTask(c, st)
	c.AddObjectLocation(obj, node, 8)
	c.ModifyObjectRefCounts(node, map[types.ObjectID]int64{obj: 0}, 71)
	c.RemoveObjectLocation(obj, node)
	c.ClaimTask(st.Spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskFinished, types.NilNodeID)

	taskShard := c.Map().ShardForKey(TaskKey(st.Spec.ID))
	sup.KillShard(taskShard)
	if res := c.Retire([]types.ObjectID{obj}); res.Tasks+res.Objects != 0 || len(res.Again) != 1 {
		t.Fatalf("Retire with the producer's shard down = %+v, want nothing removed and the object proposed again", res)
	}
	if _, ok := c.GetObject(obj); !ok {
		t.Fatal("object record removed while its producer's shard could not answer")
	}
	if err := sup.RestartShard(taskShard); err != nil {
		t.Fatal(err)
	}
	if res := c.Retire([]types.ObjectID{obj}); res.Tasks != 1 || res.Objects != 1 {
		t.Fatalf("Retire after the restart = %+v, want both records", res)
	}
	if _, ok := sup.Shard(taskShard).Store().GetTask(st.Spec.ID); ok {
		t.Fatal("task record survived on its restarted shard")
	}
}
