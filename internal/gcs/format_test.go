package gcs

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"reflect"
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
	pending, finished     types.TaskState
	garbage, live, pinned types.ObjectInfo
	node                  types.NodeInfo
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
		pinned:   types.ObjectInfo{ID: testObjectID(22), Size: 8, Producer: testTaskID(10), State: types.ObjectLost, EverRetained: true, RefOps: types.OpRing{4}, LineagePins: 2},
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
		ObjectKey(f.pinned.ID):               codec.MustEncode(f.pinned),
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

// The journaled records with no binary form of their own ride gob. These are
// the fixture's, as codec.MustEncode wrote them at commit 6414c6d, before
// plain data had a positional form: bytes on disk from that build.
var (
	parentGroup = types.PlacementGroupInfo{
		Spec: types.PlacementGroupSpec{ID: types.PlacementGroupID(testNodeID(30)), Name: "g", Strategy: types.StrategyStrictSpread,
			Bundles: []types.Bundle{{Resources: types.CPU(1)}, {Resources: types.CPU(2)}}},
		State: types.GroupPlaced, BundleNodes: []types.NodeID{testNodeID(1), testNodeID(2)},
		CreatedNs: 1, PlacedNs: 5, LastTransitionNs: 5, MutOps: types.OpRing{9},
	}
	parentJob = types.JobInfo{
		Spec:  types.JobSpec{ID: types.JobID(testNodeID(31)), Name: "j", Weight: 2, Quota: types.JobQuota{MaxLiveTasks: 3}},
		State: types.JobStopped, CreatedNs: 1, StoppingNs: 4, StoppedNs: 6, LastTransitionNs: 6, MutOps: types.OpRing{11},
	}
	parentEvent = types.Event{TimeNs: 7, Kind: "finish", Task: testTaskID(10), Object: testObjectID(20), Node: testNodeID(1), Worker: types.WorkerID(testNodeID(3)), Detail: "d"}
	parentEpoch = int64(1700000000123456789)
)

const (
	parentGroupHex = "01ff9d7f03010112506c6163656d656e7447726f7570496e666f01ff8000010901045370656301ff820001055374617465010400010b42756e646c654e6f64657301ff8e000109437265617465644e730104000108506c616365644e73010400010952656d6f7665644e7301040001104c6173745472616e736974696f6e4e7301040001064d75744f707301ff9000010a436c61696d546f6b656e01060000004bff8103010112506c6163656d656e7447726f75705370656301ff820001040102494401ff840001044e616d65010c0001085374726174656779010400010742756e646c657301ff8a00000020ff8301010110506c6163656d656e7447726f7570494401ff84000106012000001dff890201010e5b5d74797065732e42756e646c6501ff8a0001ff86000023ff850301010642756e646c6501ff8600010101095265736f757263657301ff8800000019ff87040101095265736f757263657301ff8800010c010800001dff8d0201010e5b5d74797065732e4e6f6465494401ff8e0001ff8c000016ff8b010101064e6f6465494401ff8c0001060120000014ff8f020101064f7052696e6701ff9000010600005fff800101101e00000000000000000000000000000001016701020102010103435055fef03f0001010343505540000001040102100100000000000000000000000000000010020000000000000000000000000000000102010a020a01010900"
	// parentFuncHex is a function-table record ({Name: "f", NumReturns: 2})
	// under "func:f". The table is gone; a directory that holds one still
	// recovers, the record inert in the kv.
	// parentJobHex is parentJob in its binary form (tag 0x04), as
	// codec.MustEncode wrote it at commit d2d4055, when job records were
	// encoded by hand into the kv store.
	parentJobHex   = "04061f000000000000000000000000000000016a040600000402080c0c00010b"
	parentFuncHex  = "0132ff910301010c46756e6374696f6e496e666f01ff9200010201044e616d65010c00010a4e756d52657475726e73010400000008ff92010166010400"
	parentEventHex = "015eff93030101054576656e7401ff94000107010654696d654e7301040001044b696e64010c0001045461736b01ff960001064f626a65637401ff980001044e6f646501ff8c000106576f726b657201ff9a00010644657461696c010c00000016ff95010101065461736b494401ff960001060120000018ff97010101084f626a656374494401ff980001060120000016ff8b010101064e6f6465494401ff8c0001060120000018ff9901010108576f726b6572494401ff9a0001060120000058ff94010e010666696e69736801100a00000000000000000000000000000001101400000000000000000000000000000001100100000000000000000000000000000001100300000000000000000000000000000001016400"
	parentEpochHex = "010b0400f82f2f39fc7b0b9a2a"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// parentEncode is what codec.Encode did at that commit for every value but
// []byte, nil and the binary records: the gob tag and a fresh gob stream.
func parentEncode(t *testing.T, v any) []byte {
	t.Helper()
	buf := bytes.NewBuffer([]byte{0x01})
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	pairs[keyGroup+parentGroup.Spec.ID.Hex()] = unhex(t, parentGroupHex)
	pairs[keyJob+parentJob.Spec.ID.Hex()] = unhex(t, parentJobHex)
	pairs["func:f"] = unhex(t, parentFuncHex)
	pairs[keyMetaEpoch] = unhex(t, parentEpochHex)
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
	logger.Append(keyEvents+parentEvent.Node.Hex(), unhex(t, parentEventHex))
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	s := startTestShard(t, dir).Store()
	if got := s.PlacementGroups(); len(got) != 1 || !reflect.DeepEqual(got[0], parentGroup) {
		t.Errorf("PlacementGroups = %+v, want %+v", got, parentGroup)
	}
	if got := s.Jobs(); len(got) != 1 || !reflect.DeepEqual(got[0], parentJob) {
		t.Errorf("Jobs = %+v, want %+v", got, parentJob)
	}
	if got, _ := s.db.Get("func:f"); !bytes.Equal(got, unhex(t, parentFuncHex)) {
		t.Errorf("the function record was rewritten or dropped: %x", got)
	}
	if got := s.Events(); !slices.Contains(got, parentEvent) {
		t.Errorf("Events = %+v, want %+v among them", got, parentEvent)
	}
	if got := s.epoch.UnixNano(); got != parentEpoch {
		t.Errorf("epoch = %d, want %d", got, parentEpoch)
	}
	sameRecords(t, "Tasks", s.Tasks(), f.pending, f.finished)
	sameRecords(t, "Objects", s.Objects(), f.garbage, f.live, f.pinned)
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
	s.ClaimTaskOp(task, []types.TaskStatus{types.TaskRunning}, types.TaskPending, types.NilNodeID, 45) // a second pendidx marker
	s.PinObjects(map[types.ObjectID]int64{obj: 1}, 46)                                                 // a pinned object record
	s.CreatePlacementGroup(parentGroup.Spec)
	s.CreateJob(parentJob.Spec)
	s.CASJobStateOp(parentJob.Spec.ID, []types.JobState{types.JobRunning}, types.JobStopping, 47)
	s.LogEvent(parentEvent)
	tasks, objects, nodes := s.Tasks(), s.Objects(), s.Nodes()
	groups, jobs, epoch := s.PlacementGroups(), s.Jobs(), s.epoch.UnixNano()
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
	// The gob-borne records: what is on disk is the parent's encoding of
	// what the store lists. (One resource per bundle: gob writes a map in
	// iteration order.)
	for i := range groups {
		want[keyGroup+groups[i].Spec.ID.Hex()] = parentEncode(t, groups[i])
	}
	want[keyMetaEpoch] = parentEncode(t, epoch)
	if len(groups) != 1 {
		t.Fatalf("setup: %d groups", len(groups))
	}
	// The job records have a binary form, and it is the parent's.
	if !bytes.Equal(codec.MustEncode(parentJob), unhex(t, parentJobHex)) {
		t.Errorf("a job record no longer encodes to the parent's bytes: %x", codec.MustEncode(parentJob))
	}
	for i := range jobs {
		want[keyJob+jobs[i].Spec.ID.Hex()] = codec.MustEncode(jobs[i])
	}
	if len(jobs) != 1 || jobs[0].State != types.JobStopping {
		t.Fatalf("setup: jobs %+v", jobs)
	}
	logged := 0
	for _, k := range db.ListKeys(keyEvents) {
		for _, raw := range db.List(k) {
			ev, err := codec.DecodeAs[types.Event](raw)
			if err != nil || !bytes.Equal(raw, parentEncode(t, ev)) {
				t.Errorf("an event under %s is not the parent's encoding of %+v (%v)", k, ev, err)
			}
			logged++
		}
	}
	if logged == 0 {
		t.Error("no events on disk")
	}
	for _, prefix := range []string{keyTask, keyObject, keyNode, keyPendIdx, keyGCIdx, keyGroup, keyJob, "func:", keyMetaEpoch} {
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
