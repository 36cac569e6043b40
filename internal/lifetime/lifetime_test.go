package lifetime

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/objectstore"
	"repro/internal/types"
)

func TestTrackerPublishesCounts(t *testing.T) {
	ctrl := gcs.NewStore(2)
	tr := NewTracker(ctrl)
	id := testObj(60)
	ctrl.EnsureObject(id, types.NilTaskID)

	tr.Retain(id)
	tr.Retain(id)
	if info, _ := ctrl.GetObject(id); info.RefCount != 2 {
		t.Fatalf("refcount = %d, want 2", info.RefCount)
	}
	tr.Release(id)
	if info, _ := ctrl.GetObject(id); info.RefCount != 1 {
		t.Fatalf("refcount = %d, want 1", info.RefCount)
	}
	if tr.Held(id) != 1 {
		t.Fatalf("held = %d, want 1", tr.Held(id))
	}
}

func TestTrackerDoubleReleaseIsNoop(t *testing.T) {
	ctrl := gcs.NewStore(2)
	a, b := NewTracker(ctrl), NewTracker(ctrl)
	id := testObj(61)
	a.Retain(id)
	b.Release(id) // b holds nothing: must not touch the global count
	b.Release(id)
	if info, _ := ctrl.GetObject(id); info.RefCount != 1 {
		t.Fatalf("refcount = %d after foreign releases, want 1", info.RefCount)
	}
}

func TestZeroTransitionPublishesGC(t *testing.T) {
	ctrl := gcs.NewStore(2)
	sub := ctrl.Subscribe(gcs.TopicObjectGC, types.NilObjectID)
	defer sub.Close()
	tr := NewTracker(ctrl)
	id := testObj(62)

	tr.Retain(id)
	tr.Release(id)
	select {
	case msg := <-sub.C():
		var got types.ObjectID
		copy(got[:], msg)
		if got != id {
			t.Fatalf("GC published %v, want %v", got, id)
		}
	case <-time.After(time.Second):
		t.Fatal("zero transition did not publish GC")
	}

	// Objects never retained must never become GC-eligible, copy or not.
	ctrl.AddObjectLocation(testObj(63), testNode(1), 8)
	select {
	case <-sub.C():
		t.Fatal("untracked object published GC")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestReleaseAll(t *testing.T) {
	ctrl := gcs.NewStore(2)
	tr := NewTracker(ctrl)
	id := testObj(64)
	tr.Retain(id)
	tr.Retain(id)
	tr.Retain(id)
	tr.ReleaseAll()
	if info, _ := ctrl.GetObject(id); info.RefCount != 0 {
		t.Fatalf("refcount = %d after ReleaseAll, want 0", info.RefCount)
	}
	if tr.Held(id) != 0 {
		t.Fatal("tracker still holds references")
	}
}

func TestDiskSpillerRoundTrip(t *testing.T) {
	sp, err := NewDiskSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := testObj(65)
	payload := patterned(4 << 10)
	if err := sp.Spill(id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Restore(id)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("restore = %d bytes, %v", len(got), err)
	}
	if err := sp.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Restore(id); err == nil {
		t.Fatal("restore succeeded after remove")
	}
	if err := sp.Remove(id); err != nil {
		t.Fatalf("double remove: %v", err)
	}
	spills, restores, onDisk := sp.Stats()
	if spills != 1 || restores != 1 || onDisk != 0 {
		t.Fatalf("stats = %d %d %d", spills, restores, onDisk)
	}
}

func TestStoreSpillsUnderPressureAndRestores(t *testing.T) {
	ctrl := gcs.NewStore(2)
	tier, err := NewDiskSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := objectstore.New(testNode(1), ctrl, 2<<10)
	store.SetSpillTier(tier)
	store.SetRefChecker(func(types.ObjectID) bool { return true })

	a, b := testObj(70), testObj(71)
	pa, pb := patterned(1500), patterned(1500)
	if err := store.Put(a, pa); err != nil {
		t.Fatal(err)
	}
	// b does not fit next to a: a (referenced) must spill, not drop.
	if err := store.Put(b, pb); err != nil {
		t.Fatalf("Put under pressure: %v", err)
	}
	if !store.Contains(a) || !store.Contains(b) {
		t.Fatal("spill lost an object")
	}
	if store.Used() > 2<<10 {
		t.Fatalf("used %d exceeds capacity", store.Used())
	}
	if store.SpilledBytes() != 1500 {
		t.Fatalf("spilled = %d, want 1500", store.SpilledBytes())
	}
	if info, _ := ctrl.GetObject(a); !info.IsSpilledOn(store.Node()) {
		t.Fatal("control plane does not know a is spilled")
	}

	// Get must transparently restore (and push b out to disk in turn).
	got, ok := store.Get(a)
	if !ok || !bytes.Equal(got, pa) {
		t.Fatal("restore corrupted a")
	}
	if info, _ := ctrl.GetObject(a); info.IsSpilledOn(store.Node()) {
		t.Fatal("restored object still marked spilled")
	}
	stats := store.Stats()
	if stats.Spills < 2 || stats.Restores != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEvictionDropsGarbageSpillsReferenced(t *testing.T) {
	ctrl := gcs.NewStore(2)
	tier, err := NewDiskSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := objectstore.New(testNode(1), ctrl, 2<<10)
	store.SetSpillTier(tier)
	live, garbage := testObj(72), testObj(73)
	store.SetRefChecker(func(id types.ObjectID) bool { return id == live })

	if err := store.Put(live, patterned(800)); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(garbage, patterned(800)); err != nil {
		t.Fatal(err)
	}
	// Pressure forces both cold objects out of memory.
	if err := store.Put(testObj(74), patterned(1800)); err != nil {
		t.Fatal(err)
	}
	if !store.Contains(live) {
		t.Fatal("referenced object dropped instead of spilled")
	}
	if store.Contains(garbage) {
		t.Fatal("garbage object survived eviction")
	}
	if info, _ := ctrl.GetObject(garbage); info.State != types.ObjectLost {
		t.Fatalf("garbage state = %v, want LOST", info.State)
	}
}

func TestManagerReclaimsOnZeroRefs(t *testing.T) {
	ctrl := gcs.NewStore(2)
	store := objectstore.New(testNode(1), ctrl, 0)
	mgr := NewManager(ctrl, store)
	mgr.Start()
	defer mgr.Stop()

	id := testObj(75)
	if err := store.Put(id, patterned(1024)); err != nil {
		t.Fatal(err)
	}
	mgr.Tracker().Retain(id)
	if store.Used() != 1024 {
		t.Fatalf("used = %d", store.Used())
	}
	mgr.Tracker().Release(id)

	// The manager counts a reclamation after the store's Delete returns, so
	// the count can trail the freed bytes: wait for both.
	deadline := time.After(2 * time.Second)
	for store.Used() != 0 || mgr.Reclaimed() != 1 {
		select {
		case <-deadline:
			t.Fatalf("store not reclaimed; used = %d, reclaimed = %d", store.Used(), mgr.Reclaimed())
		case <-time.After(2 * time.Millisecond):
		}
	}
	// Reclaiming also removes the spill-tier copy path: the object is gone.
	if store.Contains(id) {
		t.Fatal("object still resident after reclamation")
	}
}

func TestManagerKeepsReferencedObjects(t *testing.T) {
	ctrl := gcs.NewStore(2)
	store := objectstore.New(testNode(1), ctrl, 0)
	mgr := NewManager(ctrl, store)
	mgr.Start()
	defer mgr.Stop()

	id := testObj(76)
	if err := store.Put(id, patterned(64)); err != nil {
		t.Fatal(err)
	}
	other := NewTracker(ctrl)
	other.Retain(id) // a second holder elsewhere in the cluster
	mgr.Tracker().Retain(id)
	mgr.Tracker().Release(id)
	time.Sleep(20 * time.Millisecond)
	if !store.Contains(id) {
		t.Fatal("object reclaimed while another holder has a reference")
	}
}
