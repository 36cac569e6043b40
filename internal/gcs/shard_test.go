package gcs

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

func testTaskID(b byte) types.TaskID {
	var id types.TaskID
	id[0] = b
	return id
}

func testObjectID(b byte) types.ObjectID {
	var id types.ObjectID
	id[0] = b
	return id
}

func testNodeID(b byte) types.NodeID {
	var id types.NodeID
	id[0] = b
	return id
}

func TestShardMapRoutingStableAndSpread(t *testing.T) {
	m := ShardMap{Version: 1, Shards: make([]ShardInfo, 4)}
	hit := make(map[int]int)
	for i := 0; i < 64; i++ {
		key := TaskKey(testTaskID(byte(i)))
		idx := m.ShardForKey(key)
		if idx != m.ShardForKey(key) {
			t.Fatal("routing not deterministic")
		}
		if idx < 0 || idx >= 4 {
			t.Fatalf("out-of-range shard %d", idx)
		}
		hit[idx]++
	}
	if len(hit) < 3 {
		t.Fatalf("64 keys landed on only %d/4 shards", len(hit))
	}
}

// TestShardServiceDurableRestart is the single-shard failover contract:
// state committed before a kill is all there after a restart from
// snapshot + WAL, the incarnation bumps, and the durable clock epoch keeps
// NowNs monotonic across the crash.
func TestShardServiceDurableRestart(t *testing.T) {
	nw := transport.NewInproc(0)
	svc, err := StartShard(ShardConfig{
		Index: 0, Addr: "shard-0", Network: nw, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A lone shard has no supervisor; serve the one-entry map a client
	// needs to find it.
	mapSrv := transport.NewServer()
	handle0(mapSrv, MethodShardMap, func() ShardMap {
		return ShardMap{Version: 1, Shards: []ShardInfo{{Index: 0, Addr: "shard-0"}}}
	})
	ml, err := nw.Listen("gcs", mapSrv)
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	// A short retry window: the reads against the killed shard below must
	// give up, not ride out the default 3s.
	client, err := NewSharded(ShardedConfig{Network: nw, MapAddr: "gcs", RetryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	task := testTaskID(1)
	obj := testObjectID(2)
	if !client.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, Function: "f"}, Status: types.TaskPending}) {
		t.Fatal("AddTask failed")
	}
	client.EnsureObjects(map[types.ObjectID]types.TaskID{obj: task})
	client.AddObjectLocation(obj, testNodeID(3), 128)
	addRef(client, obj, 2)
	if n := refCount(t, client, obj); n != 2 {
		t.Fatalf("refcount = %d", n)
	}
	// Checkpoint now; post-checkpoint mutations must come back via WAL.
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	addRef(client, obj, 1)
	if n := refCount(t, client, obj); n != 3 {
		t.Fatalf("refcount = %d", n)
	}
	preKillNow := client.NowNs()

	svc.Kill()
	if client.Ping() {
		t.Fatal("killed shard still answering")
	}
	if _, ok := client.GetTask(task); ok {
		t.Fatal("killed shard served a read")
	}

	if err := svc.Restart(); err != nil {
		t.Fatal(err)
	}
	if svc.Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", svc.Incarnation())
	}
	// The same client reaches the new incarnation: its connection to the
	// old (gated) server was dropped on the failed calls above.
	if st, ok := client.GetTask(task); !ok || st.Spec.Function != "f" {
		t.Fatal("task record lost across restart")
	}
	info, ok := client.GetObject(obj)
	if !ok {
		t.Fatal("object record lost across restart")
	}
	if info.RefCount != 3 {
		t.Fatalf("refcount after snapshot+WAL recovery = %d, want 3", info.RefCount)
	}
	if !info.HasLocation(testNodeID(3)) || info.Size != 128 {
		t.Fatal("object location/size lost across restart")
	}
	if now := client.NowNs(); now < preKillNow {
		t.Fatalf("clock went backwards across restart: %d -> %d", preKillNow, now)
	}
}

func newTestSupervisor(t *testing.T, shards int, auto time.Duration) (*Supervisor, *transport.Inproc) {
	t.Helper()
	nw := transport.NewInproc(0)
	sup, err := NewSupervisor(SupervisorConfig{
		Shards:      shards,
		Network:     nw,
		MapAddr:     "gcs",
		DataDir:     t.TempDir(),
		AutoRestart: auto,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	return sup, nw
}

func newTestSharded(t *testing.T, nw *transport.Inproc) *Sharded {
	t.Helper()
	s, err := NewSharded(ShardedConfig{Network: nw, MapAddr: "gcs"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestShardedClientEndToEnd drives the whole API surface through the
// sharded client: keyed writes route to owning shards, fan-out reads merge
// every shard's slice.
func TestShardedClientEndToEnd(t *testing.T) {
	sup, nw := newTestSupervisor(t, 3, 0)
	s := newTestSharded(t, nw)

	if got := s.Map().NumShards(); got != 3 {
		t.Fatalf("map has %d shards", got)
	}
	if sup.Map().Version != s.Map().Version {
		t.Fatal("client map version diverged at connect")
	}

	// Spread records across shards.
	for i := byte(0); i < 12; i++ {
		task := testTaskID(i)
		if !s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, Function: "fn"}, Status: types.TaskPending}) {
			t.Fatalf("AddTask %d", i)
		}
		obj := testObjectID(i)
		s.EnsureObjects(map[types.ObjectID]types.TaskID{obj: task})
		s.AddObjectLocation(obj, testNodeID(1), int64(i))
	}
	if got, _ := s.ScanTasks(TaskFilter{}); len(got) != 12 {
		t.Fatalf("merged task scan = %d rows", len(got))
	}
	if got := len(s.Objects()); got != 12 {
		t.Fatalf("merged object scan = %d rows", got)
	}
	if st, ok := s.GetTask(testTaskID(7)); !ok || st.Spec.Function != "fn" {
		t.Fatal("keyed GetTask failed")
	}
	if !casWon(s.ClaimTask(testTaskID(7), []types.TaskStatus{types.TaskPending}, types.TaskQueued, types.NilNodeID)) {
		t.Fatal("CAS through sharded client failed")
	}

	s.RegisterNode(types.NodeInfo{ID: testNodeID(1), Addr: "n1", Total: types.CPU(4)})
	s.Heartbeat(testNodeID(1), 3, types.CPU(2), types.StoreStats{})
	if n, ok := s.GetNode(testNodeID(1)); !ok || n.QueueLen != 3 {
		t.Fatal("node heartbeat lost")
	}
	if len(s.Nodes()) != 1 {
		t.Fatal("node scan wrong")
	}

	s.LogEvent(types.Event{Kind: "test", Node: testNodeID(1)})
	if len(s.Events()) == 0 {
		t.Fatal("event log empty")
	}
	if !s.Ping() {
		t.Fatal("ping with all shards up")
	}
}

// TestShardedFailoverKeyedCall: a keyed call issued while the owning shard
// is down retries through the map and lands on the restarted incarnation —
// the client-visible form of failover.
func TestShardedFailoverKeyedCall(t *testing.T) {
	sup, nw := newTestSupervisor(t, 2, 0)
	s := newTestSharded(t, nw)

	task := testTaskID(9)
	victim := s.Map().ShardForKey(TaskKey(task))
	if !s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, Function: "g"}, Status: types.TaskPending}) {
		t.Fatal("AddTask")
	}
	sup.KillShard(victim)
	if s.Ping() {
		t.Fatal("ping must fail with a dead shard")
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		sup.RestartShard(victim)
	}()
	// Issued against the dead shard; must block-retry and then succeed.
	st, ok := s.GetTask(task)
	if !ok || st.Spec.Function != "g" {
		t.Fatal("keyed call did not fail over to the restarted shard")
	}
	if !s.Ping() {
		t.Fatal("ping after recovery")
	}
	if sup.Shard(victim).Incarnation() != 2 {
		t.Fatalf("incarnation = %d", sup.Shard(victim).Incarnation())
	}
}

// TestResilientSubscriptionSurvivesShardRestart: one Sub outlives a shard
// kill+restart — messages published to the new incarnation still arrive,
// and the GC channel's eligible-set replay covers the publish that died
// with the old incarnation.
func TestResilientSubscriptionSurvivesShardRestart(t *testing.T) {
	sup, nw := newTestSupervisor(t, 2, 0)
	s := newTestSharded(t, nw)

	objA, objB := testObjectID(1), testObjectID(2)
	s.AddObjectLocation(objA, testNodeID(1), 8)
	s.AddObjectLocation(objB, testNodeID(1), 8)

	sub := s.Subscribe(TopicObjectGC, types.NilObjectID)
	defer sub.Close()

	// recv drains until the target ID arrives (restarted shards may replay
	// other still-eligible objects first) or the wait elapses.
	recv := func(target types.ObjectID, wait time.Duration) bool {
		deadline := time.After(wait)
		for {
			select {
			case msg, ok := <-sub.C():
				if !ok {
					t.Fatal("subscription channel closed unexpectedly")
				}
				var id types.ObjectID
				copy(id[:], msg)
				if id == target {
					return true
				}
			case <-deadline:
				return false
			}
		}
	}

	// Zero-transition before the kill: delivered live.
	addRef(s, objA, 1)
	addRef(s, objA, -1)
	if !recv(objA, 2*time.Second) {
		t.Fatal("live GC publish not delivered")
	}

	// Kill BOTH shards (whole control plane down), restart, and make a new
	// zero-transition: the same Sub must deliver it via resubscription.
	sup.KillShard(0)
	sup.KillShard(1)
	time.Sleep(10 * time.Millisecond)
	if err := sup.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	if err := sup.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	addRef(s, objB, 1)
	addRef(s, objB, -1)
	if !recv(objB, 5*time.Second) {
		t.Fatal("GC publish after shard restart not delivered to old Sub")
	}
}

// TestModifyRefCountOpIdempotent pins the retry-dedup contract: a delta
// redelivered with the same op token (a retry whose original response was
// lost to a shard crash) is applied exactly once, and the dedup ring is
// durable with the record.
func TestModifyRefCountOpIdempotent(t *testing.T) {
	s := NewStore(2)
	obj := testObjectID(7)
	s.EnsureObject(obj, types.NilTaskID)
	apply := func(delta int64, op uint64) int64 {
		s.ModifyObjectRefCounts(types.NilNodeID, map[types.ObjectID]int64{obj: delta}, op)
		return refCount(t, s, obj)
	}

	const opA, opB, opC = 11, 22, 33
	if n := apply(1, opA); n != 1 {
		t.Fatalf("first apply = %d", n)
	}
	if n := apply(1, opA); n != 1 {
		t.Fatalf("duplicate apply changed count to %d", n)
	}
	if n := apply(1, opB); n != 2 {
		t.Fatalf("distinct op = %d, want 2", n)
	}
	if n := apply(-1, opC); n != 1 {
		t.Fatalf("release = %d", n)
	}
	if n := apply(-1, opC); n != 1 {
		t.Fatalf("duplicate release = %d, want 1", n)
	}
	// Token 0 disables dedup (non-retrying callers).
	if n := apply(1, 0); n != 2 {
		t.Fatalf("op 0 = %d", n)
	}
	if n := apply(1, 0); n != 3 {
		t.Fatalf("op 0 repeat = %d (must not dedup)", n)
	}
}

// TestCASOpDuplicateReportsWon: a CAS retried with the same token after
// its commit survived a crash (ack lost) must report won — the retry
// losing to its own commit would strand the task claimed-but-unowned.
func TestCASOpDuplicateReportsWon(t *testing.T) {
	s := NewStore(2)
	task := testTaskID(8)
	s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task}, Status: types.TaskPending})

	const op = 77
	if !casWon(s.ClaimTaskOp(task, []types.TaskStatus{types.TaskPending}, types.TaskQueued, types.NilNodeID, op)) {
		t.Fatal("first CAS lost")
	}
	if !casWon(s.ClaimTaskOp(task, []types.TaskStatus{types.TaskPending}, types.TaskQueued, types.NilNodeID, op)) {
		t.Fatal("retried CAS lost to its own commit")
	}
	// A genuinely distinct contender still loses.
	if casWon(s.ClaimTaskOp(task, []types.TaskStatus{types.TaskPending}, types.TaskQueued, types.NilNodeID, 78)) {
		t.Fatal("second contender won an already-claimed CAS")
	}
	if st, _ := s.GetTask(task); st.Status != types.TaskQueued {
		t.Fatalf("status = %v", st.Status)
	}
}

// setMark tears a marker index the way a crash between a record's WAL write
// and its marker's does: it plants or drops id's marker behind the table's
// back, leaving the record alone.
func setMark[K ~[types.IDSize]byte, V any](t *table[K, V], id K, on bool) {
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if on {
		st.marks[id] = struct{}{}
	} else {
		delete(st.marks, id)
	}
}

// TestAddTaskDuplicateHealsPendingMarker: a retried AddTask whose first
// commit lost its marker to a crash re-establishes it.
func TestAddTaskDuplicateHealsPendingMarker(t *testing.T) {
	s := NewStore(2)
	task := testTaskID(9)
	state := types.TaskState{Spec: types.TaskSpec{ID: task}, Status: types.TaskPending}
	s.AddTask(state)
	// Simulate the crash window: record durable, marker lost.
	setMark(s.tasks, task, false)
	if got := s.StalePendingTasks(0); len(got) != 0 {
		t.Fatal("setup: marker should be gone")
	}
	if s.AddTask(state) {
		t.Fatal("duplicate AddTask reported fresh")
	}
	if got := s.StalePendingTasks(0); len(got) != 1 {
		t.Fatal("duplicate AddTask did not heal the pending marker")
	}
}

// TestRefOpDuplicateRepublishesGC: a refcount release retried after its
// commit survived but its GC marker/publish died must redo those side
// effects, or the object leaks forever.
func TestRefOpDuplicateRepublishesGC(t *testing.T) {
	s := NewStore(2)
	obj := testObjectID(6)
	s.EnsureObject(obj, types.NilTaskID)
	s.AddObjectLocation(obj, testNodeID(1), 8)
	s.ModifyObjectRefCounts(types.NilNodeID, map[types.ObjectID]int64{obj: 1}, 91)
	s.ModifyObjectRefCounts(types.NilNodeID, map[types.ObjectID]int64{obj: -1}, 92)
	// Simulate the crash window: delta committed, marker lost.
	setMark(s.objects, obj, false)
	if got := s.GCEligibleObjects(); len(got) != 0 {
		t.Fatal("setup: marker should be gone")
	}
	sub := s.Subscribe(TopicObjectGC, types.NilObjectID)
	defer sub.Close()
	s.ModifyObjectRefCounts(types.NilNodeID, map[types.ObjectID]int64{obj: -1}, 92)
	if n := refCount(t, s, obj); n != 0 {
		t.Fatalf("duplicate release applied: count %d", n)
	}
	if got := s.GCEligibleObjects(); len(got) != 1 {
		t.Fatal("duplicate delivery did not re-establish the GC marker")
	}
	select {
	case msg := <-sub.C():
		var id types.ObjectID
		copy(id[:], msg)
		if id != obj {
			t.Fatalf("republished %v", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("duplicate delivery did not republish on the GC channel")
	}
}

// TestRebuildIndexesReconciles: boot-time reconciliation restores markers
// stranded by a torn WAL tail and retires markers whose records moved on.
func TestRebuildIndexesReconciles(t *testing.T) {
	s := NewStore(2)
	node := testNodeID(1)
	pending, claimed := testTaskID(10), testTaskID(11)
	s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: pending}, Status: types.TaskPending})
	s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: claimed}, Status: types.TaskPending})
	s.ClaimTask(claimed, []types.TaskStatus{types.TaskPending}, types.TaskQueued, types.NilNodeID)
	garbage := testObjectID(12)
	s.EnsureObject(garbage, types.NilTaskID)
	s.AddObjectLocation(garbage, node, 8)
	addRef(s, garbage, 1)
	addRef(s, garbage, -1)

	// Tear the indexes both ways: drop a live marker, plant a stale one.
	setMark(s.tasks, pending, false)
	setMark(s.tasks, claimed, true)
	setMark(s.objects, garbage, false)

	s.RebuildIndexes()

	got := s.StalePendingTasks(0)
	if len(got) != 1 || got[0].ID != pending {
		t.Fatalf("pending index after rebuild: %v", got)
	}
	if elig := s.GCEligibleObjects(); len(elig) != 1 || elig[0] != garbage {
		t.Fatalf("gc index after rebuild: %v", elig)
	}
}

// TestStalePendingIndexFollowsTransitions: the PENDING marker index that
// backs the rescue sweep tracks status transitions both ways, so the
// sweep sees exactly the unclaimed set.
func TestStalePendingIndexFollowsTransitions(t *testing.T) {
	s := NewStore(2)
	task := testTaskID(3)
	s.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, Function: "f"}, Status: types.TaskPending})
	if got := s.StalePendingTasks(0); len(got) != 1 || got[0].ID != task {
		t.Fatalf("pending index after AddTask: %v", got)
	}
	// Claimed: leaves the index.
	if !casWon(s.ClaimTask(task, []types.TaskStatus{types.TaskPending}, types.TaskQueued, types.NilNodeID)) {
		t.Fatal("CAS")
	}
	if got := s.StalePendingTasks(0); len(got) != 0 {
		t.Fatalf("claimed task still in pending index: %v", got)
	}
	// Retry path: reset to PENDING re-enters the index.
	reset := delta(task, 1, types.TaskPending)
	reset.LastTransitionNs = s.NowNs()
	s.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{reset}, 0)
	if got := s.StalePendingTasks(0); len(got) != 1 {
		t.Fatalf("reset-to-pending task missing from index: %v", got)
	}
	// And the age filter respects the reset's fresh LastTransitionNs.
	if got := s.StalePendingTasks(int64(time.Hour)); len(got) != 0 {
		t.Fatalf("fresh reset counted as stale: %v", got)
	}
}

// TestGCEligibleIndexRetires: the GC-eligible marker set retires entries
// when an object is re-retained from zero or fully drained, so subscribe
// replay stays proportional to outstanding garbage.
func TestGCEligibleIndexRetires(t *testing.T) {
	s := NewStore(2)
	node := testNodeID(1)
	obj := testObjectID(4)
	s.EnsureObject(obj, types.NilTaskID)
	s.AddObjectLocation(obj, node, 8)

	addRef(s, obj, 1)
	if got := s.GCEligibleObjects(); len(got) != 0 {
		t.Fatalf("retained object eligible: %v", got)
	}
	addRef(s, obj, -1)
	if got := s.GCEligibleObjects(); len(got) != 1 || got[0] != obj {
		t.Fatalf("zero-transition not indexed: %v", got)
	}
	// Re-retained from zero: no longer eligible.
	addRef(s, obj, 1)
	if got := s.GCEligibleObjects(); len(got) != 0 {
		t.Fatalf("re-retained object still eligible: %v", got)
	}
	// Back to eligible, then fully drained: marker retires for good.
	addRef(s, obj, -1)
	s.RemoveObjectLocation(obj, node)
	if got := s.GCEligibleObjects(); len(got) != 0 {
		t.Fatalf("fully-drained object still replayed: %v", got)
	}
}

// TestGCEligibleReplayOnSubscribe: an object already GC-eligible when a
// subscriber attaches (its zero-transition publish was lost with a crash)
// is replayed to the new subscription.
func TestGCEligibleReplayOnSubscribe(t *testing.T) {
	sup, nw := newTestSupervisor(t, 2, 0)
	_ = sup
	s := newTestSharded(t, nw)

	obj := testObjectID(5)
	s.AddObjectLocation(obj, testNodeID(1), 8)
	addRef(s, obj, 1)
	addRef(s, obj, -1)
	// No subscriber existed for that transition; the publish went nowhere.

	sub := s.Subscribe(TopicObjectGC, types.NilObjectID)
	defer sub.Close()
	select {
	case msg := <-sub.C():
		var id types.ObjectID
		copy(id[:], msg)
		if id != obj {
			t.Fatalf("replayed %v, want %v", id, obj)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("eligible object not replayed to late subscriber")
	}
}
