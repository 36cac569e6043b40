package gcs

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/kv"
	"repro/internal/transport"
	"repro/internal/types"
)

// The on-disk contract of the typed tables, from both sides: bytes written
// the way the store wrote them before it held decoded records recover into
// the same tables, and what a durable store writes today is the same records
// under the same keys, readable with nothing but kv and codec.

// formatFixture is a small control state with one record of every kind the
// hot tables and their marker indexes hold.
type formatFixture struct {
	pending, finished types.TaskState
	garbage, live     types.ObjectInfo
	node              types.NodeInfo
}

func newFormatFixture() formatFixture {
	n := testNodeID(1)
	spec := func(b byte) types.TaskSpec {
		return types.TaskSpec{
			ID: testTaskID(b), Function: "f", NumReturns: 1, Resources: types.CPU(1), Origin: n,
			Args: []types.Arg{types.ValueArg([]byte{b}), types.RefArg(testObjectID(b))},
		}
	}
	return formatFixture{
		pending:  types.TaskState{Spec: spec(10), Status: types.TaskPending, SubmittedNs: 1, LastTransitionNs: 1},
		finished: types.TaskState{Spec: spec(11), Status: types.TaskFinished, Node: n, Owner: n, OwnerSeq: 4, SubmittedNs: 2, LastTransitionNs: 9, FinishedNs: 9, MutOps: types.OpRing{7}},
		garbage:  types.ObjectInfo{ID: testObjectID(20), Size: 8, Producer: testTaskID(11), State: types.ObjectReady, Locations: []types.NodeID{n}, EverRetained: true, RefOps: types.OpRing{5, 6}},
		live:     types.ObjectInfo{ID: testObjectID(21), Size: 8, State: types.ObjectReady, Locations: []types.NodeID{n, testNodeID(2)}, SpilledOn: []types.NodeID{n}, RefCount: 2, EverRetained: true, Holders: map[types.NodeID]int64{n: 2}},
		node:     types.NodeInfo{ID: n, Addr: "a", Total: types.GPU(4, 1), Available: types.CPU(3), Alive: true, LastSeen: 3, MutOps: types.OpRing{8}},
	}
}

// encodings is the fixture as the kv pairs a journal holds: every record
// under its table key, and the two markers its state implies.
func (f formatFixture) encodings() map[string][]byte {
	return map[string][]byte{
		TaskKey(f.pending.Spec.ID):           codec.MustEncode(f.pending),
		TaskKey(f.finished.Spec.ID):          codec.MustEncode(f.finished),
		ObjectKey(f.garbage.ID):              codec.MustEncode(f.garbage),
		ObjectKey(f.live.ID):                 codec.MustEncode(f.live),
		NodeKey(f.node.ID):                   codec.MustEncode(f.node),
		keyPendIdx + f.pending.Spec.ID.Hex(): nil,
		keyGCIdx + f.garbage.ID.Hex():        nil,
	}
}

// sameRecords compares listings by encoding, order aside.
func sameRecords[V any](t *testing.T, what string, got []V, want ...V) {
	t.Helper()
	enc := func(vs []V) []string {
		out := make([]string, len(vs))
		for i := range vs {
			out[i] = string(codec.MustEncode(&vs[i]))
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(enc(got), enc(want)) {
		t.Errorf("%s: recovered %+v, want %+v", what, got, want)
	}
}

func startTestShard(t *testing.T, dir string) *ShardService {
	t.Helper()
	svc, err := StartShard(ShardConfig{Index: 0, Addr: "shard-fmt", Network: transport.NewInproc(0), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestRecoversParentEncodedState: a snapshot and a WAL built with
// codec.MustEncode and kv.Logger alone — half the state checkpointed, half
// only logged — recover into tables that list exactly those records.
func TestRecoversParentEncodedState(t *testing.T) {
	f := newFormatFixture()
	dir := t.TempDir()
	db, _, err := kv.RecoverDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := kv.OpenWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	logger := kv.NewLogger(db, wal)
	pairs := f.encodings()
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i == len(keys)/2 {
			if err := kv.Checkpoint(logger, dir, wal); err != nil {
				t.Fatal(err)
			}
		}
		logger.Put(k, pairs[k])
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	s := startTestShard(t, dir).Store()
	sameRecords(t, "Tasks", s.Tasks(), f.pending, f.finished)
	sameRecords(t, "Objects", s.Objects(), f.garbage, f.live)
	sameRecords(t, "Nodes", s.Nodes(), f.node)
	if got := s.StalePendingTasks(0); len(got) != 1 || got[0].ID != f.pending.Spec.ID {
		t.Errorf("StalePendingTasks = %v, want the one pending task", got)
	}
	if got := s.GCEligibleObjects(); len(got) != 1 || got[0] != f.garbage.ID {
		t.Errorf("GCEligibleObjects = %v, want the one drained object", got)
	}
}

// TestDurableStoreWritesParentFormat: drive a durable store through the API,
// across a checkpoint, and read its directory back with kv.RecoverDir and
// codec.Decode: every record the store lists sits under its table key,
// byte for byte its encoding, and the markers are the ones its sweeps see.
func TestDurableStoreWritesParentFormat(t *testing.T) {
	dir := t.TempDir()
	svc := startTestShard(t, dir)
	s := svc.Store()
	task, obj, _ := populate(s)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.ModifyObjectRefCounts(testNodeID(1), map[types.ObjectID]int64{obj: -2}, 44) // drains: a gcidx marker
	s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: testTaskID(12), Function: "g"}, Status: types.TaskPending})
	s.CASTaskStatusOp(task, []types.TaskStatus{types.TaskRunning}, types.TaskPending, 45) // a second pendidx marker
	tasks, objects, nodes := s.Tasks(), s.Objects(), s.Nodes()
	pending, garbage := s.StalePendingTasks(0), s.GCEligibleObjects()
	svc.Close()

	db, _, err := kv.RecoverDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for i := range tasks {
		want[TaskKey(tasks[i].Spec.ID)] = codec.MustEncode(&tasks[i])
	}
	for i := range objects {
		want[ObjectKey(objects[i].ID)] = codec.MustEncode(&objects[i])
	}
	for i := range nodes {
		want[NodeKey(nodes[i].ID)] = codec.MustEncode(&nodes[i])
	}
	if len(pending) != 2 || len(garbage) != 1 {
		t.Fatalf("setup: %d pending, %d garbage", len(pending), len(garbage))
	}
	for _, spec := range pending {
		want[keyPendIdx+spec.ID.Hex()] = nil
	}
	want[keyGCIdx+garbage[0].Hex()] = nil
	for _, prefix := range []string{keyTask, keyObject, keyNode, keyPendIdx, keyGCIdx} {
		for _, k := range db.Keys(prefix) {
			raw, _ := db.Get(k)
			enc, ok := want[k]
			if !ok {
				t.Errorf("stray key %s on disk", k)
			} else if !bytes.Equal(raw, enc) {
				t.Errorf("%s on disk differs from the record's encoding", k)
			}
			delete(want, k)
		}
	}
	for k := range want {
		t.Errorf("%s missing on disk", k)
	}
	var st types.TaskState
	raw, _ := db.Get(TaskKey(task))
	if err := codec.Decode(raw, &st); err != nil || st.Status != types.TaskPending {
		t.Errorf("plain decode of the task record: %+v, %v", st, err)
	}
}
