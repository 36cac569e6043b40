package objectstore

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/gcs"
	"repro/internal/types"
)

// locationCalls is a control plane that counts the location calls a store
// makes.
type locationCalls struct {
	*gcs.Store
	adds, removes, marks atomic.Int64
}

func (c *locationCalls) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	c.adds.Add(1)
	c.Store.AddObjectLocation(id, node, size)
}

func (c *locationCalls) RemoveObjectLocation(id types.ObjectID, node types.NodeID) {
	c.removes.Add(1)
	c.Store.RemoveObjectLocation(id, node)
}

func (c *locationCalls) MarkObjectSpilled(id types.ObjectID, node types.NodeID, spilled bool) {
	c.marks.Add(1)
	c.Store.MarkObjectSpilled(id, node, spilled)
}

func (c *locationCalls) counts() [3]int64 {
	return [3]int64{c.adds.Load(), c.removes.Load(), c.marks.Load()}
}

func located(ctrl gcs.API, id types.ObjectID, node types.NodeID) bool {
	info, _ := ctrl.GetObject(id)
	return slices.Contains(info.Locations, node)
}

// TestDeferredPutWaitsForItsAnnouncement: a held-back copy tells the
// arrival hook at once, reaches the table when Announce names it, once, and a
// copy deleted before then costs the control plane nothing at all.
func TestDeferredPutWaitsForItsAnnouncement(t *testing.T) {
	ctrl := &locationCalls{Store: gcs.NewStore(2)}
	node := testNode(1)
	s := New(node, ctrl, 0)
	kept, dropped := testObj(1), testObj(2)
	var arrived []types.ObjectID
	s.SetArrivalHook(func(id types.ObjectID) { arrived = append(arrived, id) })
	if err := s.PutDeferred(kept, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if len(arrived) != 1 || arrived[0] != kept {
		t.Fatalf("a held-back copy told the arrival hook %v", arrived)
	}
	if err := s.PutDeferred(dropped, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.counts(); got != [3]int64{} {
		t.Fatalf("held-back Puts made adds, removes, marks = %v", got)
	}
	if !s.Delete(dropped) {
		t.Fatal("Delete found no copy")
	}
	s.Announce(kept, dropped)
	s.Announce(kept, dropped)
	if got := ctrl.counts(); got != [3]int64{1, 0, 0} {
		t.Fatalf("after the announcements adds, removes, marks = %v, want one add", got)
	}
	if !located(ctrl, kept, node) || located(ctrl, dropped, node) {
		t.Fatal("the table does not list exactly the announced copy")
	}
	s.Delete(kept)
	if got := ctrl.counts(); got != [3]int64{1, 1, 0} || located(ctrl, kept, node) {
		t.Fatalf("deleting the announced copy: adds, removes, marks = %v", got)
	}
}

// TestAnnounce: Announce publishes a held-back copy at once, and only
// once; it says nothing of an object not here, whose PutDeferred later
// holds its copy back as any other.
func TestAnnounce(t *testing.T) {
	ctrl := &locationCalls{Store: gcs.NewStore(2)}
	node := testNode(1)
	s := New(node, ctrl, 0)
	resident, coming := testObj(1), testObj(2)
	if err := s.PutDeferred(resident, []byte("r")); err != nil {
		t.Fatal(err)
	}
	s.Announce(resident, coming)
	if !located(ctrl, resident, node) {
		t.Fatal("Announce did not publish the held-back copy")
	}
	if err := s.PutDeferred(coming, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if located(ctrl, coming, node) || !heldBack(s, coming) {
		t.Fatal("announcing an absent object published its later copy")
	}
	s.Announce(resident)
	if got := ctrl.counts(); got != [3]int64{1, 0, 0} {
		t.Fatalf("adds, removes, marks = %v, want one add", got)
	}
}

// heldBack reports whether id's copy is one CollectHome could take.
func heldBack(s *Store, id types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	return ok && s.heldBackLocked(e)
}

// TestDeferredSpillIsAnnouncedFirst: a held-back copy that spills to disk
// is announced ahead of its spill mark, which the table would otherwise
// drop as stale, so the table lists it on disk here.
func TestDeferredSpillIsAnnouncedFirst(t *testing.T) {
	ctrl := &locationCalls{Store: gcs.NewStore(2)}
	node := testNode(1)
	s := New(node, ctrl, 100)
	s.SetSpillTier(newMapTier())
	cold, hot := testObj(1), testObj(2)
	if err := s.PutDeferred(cold, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(hot, make([]byte, 64)); err != nil { // evicts cold
		t.Fatal(err)
	}
	info, _ := ctrl.GetObject(cold)
	if !slices.Contains(info.Locations, node) || !info.IsSpilledOn(node) {
		t.Fatalf("the spilled held-back copy's record: %+v, want it located and spilled here", info)
	}
	s.Announce(cold)
	if got := ctrl.counts(); got != [3]int64{2, 0, 1} {
		t.Fatalf("adds, removes, marks = %v, want the spill's add and mark and the hot Put's add", got)
	}
}

// TestCollectHome: a held-back copy goes without a word to the control
// plane, and only all of a set or none of it goes. A copy announced,
// published by Put or pinned is never collected.
func TestCollectHome(t *testing.T) {
	ctrl := &locationCalls{Store: gcs.NewStore(2)}
	s := New(testNode(1), ctrl, 0)
	free, announced, pinned, plain := testObj(1), testObj(2), testObj(3), testObj(4)
	for _, id := range []types.ObjectID{free, announced, pinned} {
		if err := s.PutDeferred(id, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(plain, []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Announce(announced)
	s.Pin(pinned)
	if !heldBack(s, free) {
		t.Fatal("a held-back copy is not held back")
	}
	for _, id := range []types.ObjectID{announced, plain} {
		if heldBack(s, id) || s.CollectHome([]types.ObjectID{id}) {
			t.Fatalf("%v: an announced or published copy was offered or collected", id)
		}
	}
	if s.CollectHome([]types.ObjectID{pinned}) {
		t.Fatal("a pinned copy was collected")
	}
	if s.CollectHome([]types.ObjectID{free, announced}) || !s.Contains(free) {
		t.Fatal("a set with an announced copy was collected, whole or in part")
	}
	before := ctrl.counts()
	if !s.CollectHome([]types.ObjectID{free}) || s.Contains(free) {
		t.Fatal("a held-back copy was not collected")
	}
	if got := ctrl.counts(); got != before {
		t.Fatalf("collecting at home made location calls: %v, then %v", before, got)
	}
	s.Announce(free)
	if located(ctrl, free, testNode(1)) {
		t.Fatal("a copy collected at home was announced")
	}
}
