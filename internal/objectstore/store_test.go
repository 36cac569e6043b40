package objectstore

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

func testNode(i uint64) types.NodeID {
	return types.NodeID(types.DeriveTaskID(types.NilTaskID, 5000+i))
}

func testObj(i uint64) types.ObjectID {
	return types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, i), 0)
}

func TestPutGet(t *testing.T) {
	ctrl := gcs.NewStore(2)
	s := New(testNode(1), ctrl, 0)
	id := testObj(1)
	if err := s.Put(id, []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(id)
	if !ok || string(got) != "data" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if !s.Contains(id) || s.Count() != 1 || s.Used() != 4 {
		t.Fatal("bookkeeping wrong")
	}
	// Control plane must know the location.
	info, ok := ctrl.GetObject(id)
	if !ok || !info.HasLocation(s.Node()) || info.Size != 4 {
		t.Fatalf("control plane: %+v, %v", info, ok)
	}
}

func TestPutIdempotent(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(1), 0)
	id := testObj(2)
	s.Put(id, []byte("aaaa"))
	s.Put(id, []byte("aaaa"))
	if s.Used() != 4 || s.Count() != 1 {
		t.Fatal("duplicate Put double-counted")
	}
}

func TestWaitChan(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(1), 0)
	id := testObj(3)
	ch := s.WaitChan(id)
	select {
	case <-ch:
		t.Fatal("waiter fired before Put")
	case <-time.After(10 * time.Millisecond):
	}
	go s.Put(id, []byte("x"))
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("waiter never fired")
	}
	if n := s.Waiters(id); n != 0 {
		t.Fatalf("%d waiters left after the arrival", n)
	}
	s.StopWait(id, ch) // fired: a no-op
	// Already-present object: channel closed immediately.
	select {
	case <-s.WaitChan(id):
	case <-time.After(time.Second):
		t.Fatal("present-object wait did not fire")
	}
	// A waiter that stops before its object arrives leaves nothing behind.
	absent := testObj(4)
	first, second := s.WaitChan(absent), s.WaitChan(absent)
	s.StopWait(absent, first)
	if n := s.Waiters(absent); n != 1 {
		t.Fatalf("%d waiters after one of two stopped, want 1", n)
	}
	s.StopWait(absent, second)
	s.StopWait(absent, second)
	if n := s.Waiters(absent); n != 0 {
		t.Fatalf("%d waiters after both stopped", n)
	}
}

func TestDeleteDeregisters(t *testing.T) {
	ctrl := gcs.NewStore(1)
	s := New(testNode(1), ctrl, 0)
	id := testObj(4)
	s.Put(id, []byte("x"))
	if !s.Delete(id) {
		t.Fatal("Delete missed present object")
	}
	if s.Delete(id) {
		t.Fatal("second Delete succeeded")
	}
	info, _ := ctrl.GetObject(id)
	if info.State != types.ObjectLost {
		t.Fatalf("sole copy deleted but state = %v", info.State)
	}
}

func TestEvictionLRU(t *testing.T) {
	ctrl := gcs.NewStore(1)
	s := New(testNode(1), ctrl, 30)
	a, b, c := testObj(10), testObj(11), testObj(12)
	s.Put(a, make([]byte, 10))
	s.Put(b, make([]byte, 10))
	s.Get(a) // a becomes most recently used; b is the LRU victim
	if err := s.Put(c, make([]byte, 15)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(b) {
		t.Fatal("LRU victim survived")
	}
	if !s.Contains(a) || !s.Contains(c) {
		t.Fatal("wrong object evicted")
	}
	if s.Used() > 30 {
		t.Fatalf("used %d exceeds capacity", s.Used())
	}
}

func TestPinnedObjectsSurviveEviction(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(1), 20)
	a, b := testObj(13), testObj(14)
	s.Put(a, make([]byte, 15))
	s.Pin(a)
	if err := s.Put(b, make([]byte, 15)); err == nil {
		t.Fatal("Put succeeded with only pinned objects to evict")
	}
	s.Unpin(a)
	if err := s.Put(b, make([]byte, 15)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(a) {
		t.Fatal("unpinned LRU object survived")
	}
}

func TestDropAllMarksLost(t *testing.T) {
	ctrl := gcs.NewStore(2)
	s := New(testNode(1), ctrl, 0)
	ids := []types.ObjectID{testObj(20), testObj(21)}
	for _, id := range ids {
		s.Put(id, []byte("x"))
	}
	s.DropAll()
	if s.Count() != 0 || s.Used() != 0 {
		t.Fatal("DropAll left residue")
	}
	for _, id := range ids {
		info, _ := ctrl.GetObject(id)
		if info.State != types.ObjectLost {
			t.Fatalf("object %v state = %v", id, info.State)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(8), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := testObj(uint64(g*100 + i))
				s.Put(id, []byte{byte(g)})
				if v, ok := s.Get(id); !ok || v[0] != byte(g) {
					t.Errorf("lost object %v", id)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Count() != 800 {
		t.Fatalf("Count = %d", s.Count())
	}
}

// --- lifetime-era edge cases ---

// mapTier is an in-memory SpillTier for tests (no disk, no lifetime import).
type mapTier struct {
	mu   sync.Mutex
	data map[types.ObjectID][]byte
}

func newMapTier() *mapTier { return &mapTier{data: make(map[types.ObjectID][]byte)} }

func (m *mapTier) Spill(id types.ObjectID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	m.data[id] = cp
	return nil
}

func (m *mapTier) Restore(id types.ObjectID) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.data[id]; ok {
		return d, nil
	}
	return nil, ErrNotFound
}

func (m *mapTier) Remove(id types.ObjectID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data, id)
	return nil
}

// TestPutAllResidentsPinnedIsFull: when every resident object is pinned,
// neither eviction nor spilling can make room — Put must fail with
// ErrStoreFull rather than corrupt a pinned buffer, spill tier or not.
func TestPutAllResidentsPinnedIsFull(t *testing.T) {
	for _, withTier := range []bool{false, true} {
		s := New(testNode(1), gcs.NewStore(1), 20)
		if withTier {
			s.SetSpillTier(newMapTier())
			s.SetRefChecker(func(types.ObjectID) bool { return true })
		}
		a, b := testObj(100), testObj(101)
		s.Put(a, make([]byte, 10))
		s.Put(b, make([]byte, 10))
		s.Pin(a)
		s.Pin(b)
		err := s.Put(testObj(102), make([]byte, 10))
		if !errors.Is(err, ErrStoreFull) {
			t.Fatalf("tier=%v: Put with all residents pinned = %v, want ErrStoreFull", withTier, err)
		}
		s.Unpin(a)
		if err := s.Put(testObj(102), make([]byte, 10)); err != nil {
			t.Fatalf("tier=%v: Put after Unpin: %v", withTier, err)
		}
	}
}

// TestRestoreFailureDropsObject: a spilled object whose tier copy has
// vanished (disk wiped) must read as absent and transition to Lost, so
// lineage reconstruction can repair it — not return corrupt data.
func TestRestoreFailureDropsObject(t *testing.T) {
	ctrl := gcs.NewStore(1)
	tier := newMapTier()
	s := New(testNode(1), ctrl, 20)
	s.SetSpillTier(tier)
	s.SetRefChecker(func(types.ObjectID) bool { return true })
	a := testObj(105)
	s.Put(a, make([]byte, 15))
	s.Put(testObj(106), make([]byte, 15)) // pressure: spills a
	if _, ok := tier.data[a]; !ok {
		t.Fatal("setup: a not spilled")
	}
	tier.mu.Lock()
	delete(tier.data, a) // simulate losing the disk
	tier.mu.Unlock()
	if _, ok := s.Get(a); ok {
		t.Fatal("Get returned data for a lost spill copy")
	}
	if s.Contains(a) {
		t.Fatal("lost spill copy still resident")
	}
	if info, _ := ctrl.GetObject(a); info.State != types.ObjectLost {
		t.Fatalf("state = %v, want LOST", info.State)
	}
}

// rangeTier extends mapTier with range reads, like the disk spiller.
type rangeTier struct{ *mapTier }

func (r rangeTier) RestoreRange(id types.ObjectID, offset, length int64) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.data[id]
	if !ok || offset >= int64(len(d)) {
		return nil, ErrNotFound
	}
	end := offset + length
	if end > int64(len(d)) {
		end = int64(len(d))
	}
	return d[offset:end], nil
}

// TestGetRange: memory entries serve slices; spilled entries are served
// from the tier's range reader without re-admission; tiers without range
// support fall back to a full restore.
func TestGetRange(t *testing.T) {
	for _, ranged := range []bool{true, false} {
		ctrl := gcs.NewStore(1)
		base := newMapTier()
		s := New(testNode(1), ctrl, 20)
		if ranged {
			s.SetSpillTier(rangeTier{base})
		} else {
			s.SetSpillTier(base)
		}
		s.SetRefChecker(func(types.ObjectID) bool { return true })
		a := testObj(120)
		payload := []byte("0123456789abcde")
		s.Put(a, payload)

		// Memory-resident range.
		if got, ok := s.GetRange(a, 3, 4); !ok || string(got) != "3456" {
			t.Fatalf("ranged=%v: memory range = %q, %v", ranged, got, ok)
		}
		// Out-of-range and degenerate requests.
		if _, ok := s.GetRange(a, 15, 1); ok {
			t.Fatalf("ranged=%v: offset at end served", ranged)
		}
		if _, ok := s.GetRange(a, -1, 4); ok {
			t.Fatalf("ranged=%v: negative offset served", ranged)
		}
		if got, ok := s.GetRange(a, 10, 99); !ok || string(got) != "abcde" {
			t.Fatalf("ranged=%v: clamped tail = %q, %v", ranged, got, ok)
		}

		// Spill a, then range-read it.
		s.Put(testObj(121), make([]byte, 15))
		if _, ok := base.data[a]; !ok {
			t.Fatalf("ranged=%v: setup: a not spilled", ranged)
		}
		got, ok := s.GetRange(a, 5, 5)
		if !ok || string(got) != "56789" {
			t.Fatalf("ranged=%v: spilled range = %q, %v", ranged, got, ok)
		}
		if ranged {
			// Range path must not re-admit (no memory churn on the source).
			if _, still := base.data[a]; !still {
				t.Fatal("range read re-admitted the object")
			}
		}
	}
}

// TestPinRacesEviction hammers Pin/Unpin against capacity-pressure Puts:
// the store must never evict an object while it is pinned, and accounting
// must stay consistent.
func TestPinRacesEviction(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(4), 64)
	hot := testObj(110)
	s.Put(hot, make([]byte, 32))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Pinner: holds the pin briefly, checks presence while pinned.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Pin(hot)
			if s.Contains(hot) {
				if _, ok := s.Get(hot); !ok {
					// Present at Pin time yet gone under the pin: only legal
					// if the Pin landed after an eviction (no-op pin).
					s.Unpin(hot)
					s.Put(hot, make([]byte, 32))
					continue
				}
			}
			s.Unpin(hot)
		}
	}()
	// Evictor: keeps the store saturated so every Put forces eviction.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Put(testObj(uint64(200+g*200+i)), make([]byte, 16))
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if used := s.Used(); used > 64 {
		t.Fatalf("used %d exceeds capacity after race", used)
	}
}
