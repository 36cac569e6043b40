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

func ownObj(b byte) types.ObjectID {
	var id types.ObjectID
	id[0] = b
	return id
}

func ownNode(b byte) types.NodeID {
	var id types.NodeID
	id[0] = 0xA0 + b
	return id
}

// TestOwnershipLedgerBatchApplyAndTouch pins the batch-apply semantics the
// tracker's flushes rely on: one token covers the whole batch, a zero
// delta ("touch": a retain+release cycle that netted out within one flush
// interval) still marks the object ever-retained and GC-eligible at zero,
// and redelivering the same token is a no-op for the counts.
func TestOwnershipLedgerBatchApplyAndTouch(t *testing.T) {
	s := gcs.NewStore(2)
	node := ownNode(1)
	a, b, c := ownObj(1), ownObj(2), ownObj(3)
	for _, id := range []types.ObjectID{a, b, c} {
		s.EnsureObject(id, types.NilTaskID)
		s.AddObjectLocation(id, node, 8)
	}

	const op = 41
	batch := map[types.ObjectID]int64{a: 2, b: 1, c: 0}
	if failed := s.ModifyObjectRefCounts(node, batch, op); len(failed) != 0 {
		t.Fatalf("batch apply failed for %v", failed)
	}
	assertCount := func(id types.ObjectID, want int64) {
		t.Helper()
		info, ok := s.GetObject(id)
		if !ok || info.RefCount != want {
			t.Fatalf("object %v count = %d (ok=%v), want %d", id, info.RefCount, ok, want)
		}
	}
	assertCount(a, 2)
	assertCount(b, 1)
	assertCount(c, 0)

	// The touched-at-zero object is garbage, not pinned-forever.
	eligible := map[types.ObjectID]bool{}
	for _, id := range s.GCEligibleObjects() {
		eligible[id] = true
	}
	if !eligible[c] {
		t.Fatal("touch (delta 0) did not make the object GC-eligible at zero")
	}
	if eligible[a] || eligible[b] {
		t.Fatal("positively-counted objects marked GC-eligible")
	}

	// Redelivery under the same token (lost ack) changes nothing.
	if failed := s.ModifyObjectRefCounts(node, batch, op); len(failed) != 0 {
		t.Fatalf("redelivery failed for %v", failed)
	}
	assertCount(a, 2)
	assertCount(b, 1)
	assertCount(c, 0)
}

// TestOwnershipLedgerShardKillRedelivery is the deterministic
// crash-window test: a shard commits a ledger batch, dies before the ack
// reaches the flusher, and recovers from snapshot+WAL. The tracker's
// redelivery under the original token must not double-apply, and the
// subsequent releases must still drive the objects to GC eligibility —
// neither a leaked count nor a stranded object.
func TestOwnershipLedgerShardKillRedelivery(t *testing.T) {
	nw := transport.NewInproc(0)
	svc, err := gcs.StartShard(gcs.ShardConfig{Index: 0, Addr: "shard-own", Network: nw, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	node := ownNode(2)
	a, b := ownObj(4), ownObj(5)
	st := svc.Store()
	for _, id := range []types.ObjectID{a, b} {
		st.EnsureObject(id, types.NilTaskID)
		st.AddObjectLocation(id, node, 8)
	}

	// The batch commits durably; the "crash" lands between commit and ack.
	const op = 97
	batch := map[types.ObjectID]int64{a: 1, b: 2}
	if failed := st.ModifyObjectRefCounts(node, batch, op); len(failed) != 0 {
		t.Fatalf("commit failed for %v", failed)
	}
	svc.Kill()
	if err := svc.Restart(); err != nil {
		t.Fatal(err)
	}
	st = svc.Store()

	// Redeliver the whole batch under the original token, exactly as the
	// flusher's retry queue would.
	if failed := st.ModifyObjectRefCounts(node, batch, op); len(failed) != 0 {
		t.Fatalf("redelivery failed for %v", failed)
	}
	if info, _ := st.GetObject(a); info.RefCount != 1 {
		t.Fatalf("object a double-applied: count %d, want 1", info.RefCount)
	}
	if info, _ := st.GetObject(b); info.RefCount != 2 {
		t.Fatalf("object b double-applied: count %d, want 2", info.RefCount)
	}

	// Releasing everything must reach zero and publish GC — a stranded
	// object here would mean the dedup also swallowed fresh deltas.
	sub := st.Subscribe(gcs.TopicObjectGC, types.NilObjectID)
	defer sub.Close()
	if failed := st.ModifyObjectRefCounts(node, map[types.ObjectID]int64{a: -1, b: -2}, 98); len(failed) != 0 {
		t.Fatalf("release failed for %v", failed)
	}
	eligible := map[types.ObjectID]bool{}
	for _, id := range st.GCEligibleObjects() {
		eligible[id] = true
	}
	if !eligible[a] || !eligible[b] {
		t.Fatalf("objects stranded after release: eligible=%v", eligible)
	}
}

// TestOwnershipLedgerConservationAcrossShardKill races a live tracker's
// batched flushes against a shard kill/restart and asserts the
// conservation law the whole design hangs on: GCS count + unflushed
// ledger deltas settles to exactly the held references, with deltas in
// flight when the shard died. The checker samples the mid-flight ledger
// (pending plus parked retry batches) every poll.
func TestOwnershipLedgerConservationAcrossShardKill(t *testing.T) {
	nw := transport.NewInproc(0)
	sup, err := gcs.NewSupervisor(gcs.SupervisorConfig{
		Shards:  3,
		Network: nw,
		MapAddr: "gcs-own",
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	client, err := gcs.NewSharded(gcs.ShardedConfig{Network: nw, MapAddr: "gcs-own"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	node := ownNode(3)
	var objs []types.ObjectID
	for i := byte(0); i < 24; i++ {
		id := ownObj(0x10 + i)
		client.EnsureObjects(map[types.ObjectID]types.TaskID{id: types.NilTaskID})
		client.AddObjectLocation(id, node, 8)
		objs = append(objs, id)
	}

	tracker := NewTracker(client)
	tracker.SetNode(node)
	tracker.Start()

	// Churn retains and releases while a shard dies and comes back, so
	// flush batches are genuinely in flight across the kill.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := objs[i%len(objs)]
			tracker.Retain(id)
			if i%3 == 0 {
				tracker.Release(id)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	sup.KillShard(1)
	time.Sleep(50 * time.Millisecond)
	if err := sup.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(done)
	wg.Wait()

	chk := chaostest.New(client)
	ledgers := map[string]chaostest.Ledger{"n3": tracker}

	// Conservation must hold with the tracker still live — retry batches
	// from the kill window drain under their original tokens.
	chk.AwaitRefConservation(t, 10*time.Second, ledgers)

	// Release every handle: counts must drain to zero everywhere and the
	// law must still hold through the final flushes.
	tracker.ReleaseAll()
	deadline := time.Now().Add(10 * time.Second)
	for !tracker.Flush() {
		if time.Now().After(deadline) {
			t.Fatal("ledger did not drain after shard restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	chk.AwaitRefConservation(t, 10*time.Second, ledgers)
	chk.AwaitZeroRefcounts(t, 10*time.Second)
	tracker.Stop()
}

// TestOwnershipOwnerDeathSweep: a node that dies with flushed retains but
// unflushed releases leaks its share until the sweep subtracts everything
// attributed to it; objects only the dead node kept alive become
// GC-eligible, and re-running the sweep is a no-op.
func TestOwnershipOwnerDeathSweep(t *testing.T) {
	s := gcs.NewStore(2)
	dead, live := ownNode(4), ownNode(5)
	shared, private := ownObj(0x40), ownObj(0x41)
	for _, id := range []types.ObjectID{shared, private} {
		s.EnsureObject(id, types.NilTaskID)
		s.AddObjectLocation(id, live, 8)
	}
	// The dead node's flushed state: one share on each object; the live
	// node also holds the shared one.
	if failed := s.ModifyObjectRefCounts(dead, map[types.ObjectID]int64{shared: 1, private: 2}, 51); len(failed) != 0 {
		t.Fatalf("dead node flush failed: %v", failed)
	}
	if failed := s.ModifyObjectRefCounts(live, map[types.ObjectID]int64{shared: 1}, 52); len(failed) != 0 {
		t.Fatalf("live node flush failed: %v", failed)
	}

	if n := s.SweepDeadNodeRefs(dead); n < 0 {
		t.Fatalf("sweep incomplete: %d", n)
	}
	if info, _ := s.GetObject(shared); info.RefCount != 1 {
		t.Fatalf("shared object count after sweep = %d, want 1 (live share intact)", info.RefCount)
	}
	if info, _ := s.GetObject(private); info.RefCount != 0 {
		t.Fatalf("private object count after sweep = %d, want 0", info.RefCount)
	}
	eligible := map[types.ObjectID]bool{}
	for _, id := range s.GCEligibleObjects() {
		eligible[id] = true
	}
	if !eligible[private] || eligible[shared] {
		t.Fatalf("sweep GC eligibility wrong: %v", eligible)
	}

	// Idempotent: a second sweep (retry after partial coverage) changes
	// nothing.
	s.SweepDeadNodeRefs(dead)
	if info, _ := s.GetObject(shared); info.RefCount != 1 {
		t.Fatal("repeated sweep ate the live node's share")
	}
}
