package objectstore

// Tests for the per-entry state machine (DESIGN.md §8): spill/restore I/O
// and control-plane RPCs run outside the store mutex, so a blocked refcount
// oracle (a GCS shard mid-failover) or a slow disk must never stall Get or
// Contains of other objects; accounting must survive arbitrary races
// between Put/Get/GetRange/Delete and in-flight spills/restores.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// blockableOracle is a refcount oracle that always answers "referenced"
// but can be blocked to simulate a control-plane shard failover.
type blockableOracle struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (o *blockableOracle) referenced(types.ObjectID) bool {
	o.mu.Lock()
	gate := o.gate
	o.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return true
}

// block makes subsequent oracle calls hang until unblock.
func (o *blockableOracle) block() {
	o.mu.Lock()
	o.gate = make(chan struct{})
	o.mu.Unlock()
}

func (o *blockableOracle) unblock() {
	o.mu.Lock()
	if o.gate != nil {
		close(o.gate)
		o.gate = nil
	}
	o.mu.Unlock()
}

// gateTier blocks each Spill between enter and release, so tests can hold
// a tier write in flight deterministically.
type gateTier struct {
	*mapTier
	enter   chan struct{}
	release chan struct{}
}

func newGateTier() *gateTier {
	return &gateTier{mapTier: newMapTier(), enter: make(chan struct{}, 8), release: make(chan struct{})}
}

func (g *gateTier) Spill(id types.ObjectID, data []byte) error {
	g.enter <- struct{}{}
	<-g.release
	return g.mapTier.Spill(id, data)
}

// gateRestoreTier blocks each Restore between enter and release.
type gateRestoreTier struct {
	*mapTier
	enter   chan struct{}
	release chan struct{}
}

func newGateRestoreTier() *gateRestoreTier {
	return &gateRestoreTier{mapTier: newMapTier(), enter: make(chan struct{}, 8), release: make(chan struct{})}
}

func (g *gateRestoreTier) Restore(id types.ObjectID) ([]byte, error) {
	g.enter <- struct{}{}
	<-g.release
	return g.mapTier.Restore(id)
}

// countTier counts Restore calls and makes them slow, for the
// single-flight assertion.
type countTier struct {
	*mapTier
	restoreCalls atomic.Int32
}

func (c *countTier) Restore(id types.ObjectID) ([]byte, error) {
	c.restoreCalls.Add(1)
	time.Sleep(30 * time.Millisecond)
	return c.mapTier.Restore(id)
}

// failSpillTier refuses every spill, like a full or budget-refusing disk.
type failSpillTier struct{ *mapTier }

func (failSpillTier) Spill(types.ObjectID, []byte) error {
	return errors.New("tier: refused")
}

// TestEvictionOrderLRU pins the intrusive LRU list's behaviour: victims
// leave in least-recently-touched order, and a Get re-heats its object.
func TestEvictionOrderLRU(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(1), 40)
	a, b, c, d := testObj(300), testObj(301), testObj(302), testObj(303)
	for _, id := range []types.ObjectID{a, b, c, d} {
		if err := s.Put(id, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch order: b then a. MRU→LRU is now a, b, d, c.
	s.Get(b)
	s.Get(a)
	wantOrder := []types.ObjectID{c, d, b, a}
	for i, victim := range wantOrder {
		if err := s.Put(testObj(uint64(310+i)), make([]byte, 10)); err != nil {
			t.Fatalf("filler put %d: %v", i, err)
		}
		if s.Contains(victim) {
			t.Fatalf("eviction %d: expected victim %v still present", i, victim)
		}
		for _, later := range wantOrder[i+1:] {
			if !s.Contains(later) {
				t.Fatalf("eviction %d: %v evicted out of order", i, later)
			}
		}
	}
}

// TestBlockedOracleDoesNotStallDataPlane is the regression test for the
// whole-node stall bug: with the refcount oracle hung (a GCS shard mid-
// failover) while an eviction is in flight, Get of a resident object, Get
// of the victim itself (its bytes are still in memory), and Contains must
// all return promptly. Under the old design every one of these waited on
// the store mutex held across the oracle RPC.
func TestBlockedOracleDoesNotStallDataPlane(t *testing.T) {
	oracle := &blockableOracle{}
	s := New(testNode(1), gcs.NewStore(1), 30)
	s.SetSpillTier(newMapTier())
	s.SetRefChecker(oracle.referenced)

	victim, hot := testObj(320), testObj(321)
	s.Put(victim, make([]byte, 10))
	s.Put(hot, make([]byte, 10))
	s.Get(hot) // victim is now the LRU entry

	oracle.block()
	defer oracle.unblock()
	putDone := make(chan error, 1)
	go func() {
		// Needs 10 bytes: claims victim, then hangs on the oracle.
		putDone <- s.Put(testObj(322), make([]byte, 20))
	}()

	// Wait until the eviction is actually in flight (claimed under the
	// lock, blocked in the oracle outside it).
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		inflight := s.inflight
		s.mu.Unlock()
		if inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction never started")
		}
		time.Sleep(time.Millisecond)
	}

	type result struct {
		what string
		ok   bool
	}
	results := make(chan result, 3)
	go func() {
		_, ok := s.Get(hot)
		results <- result{"Get(hot)", ok}
	}()
	go func() {
		_, ok := s.Get(victim)
		results <- result{"Get(victim)", ok}
	}()
	go func() {
		results <- result{"Contains", s.Contains(victim)}
	}()
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if !r.ok {
				t.Fatalf("%s = false during blocked-oracle eviction", r.what)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("data-plane call blocked behind the hung refcount oracle")
		}
	}

	select {
	case err := <-putDone:
		t.Fatalf("Put finished while oracle blocked: %v", err)
	default:
	}
	oracle.unblock()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("Put after oracle unblocked: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Put never completed after oracle unblocked")
	}
}

// TestRestoringGetSkipsOracle: a Get of a spilled object whose re-admission
// must evict colder residents presumes those victims are referenced and
// spills them without consulting the refcount oracle — a failover-blocked
// oracle must not hang a Get that already has its bytes (spilling garbage
// is safe; GC deletes it later).
func TestRestoringGetSkipsOracle(t *testing.T) {
	oracle := &blockableOracle{}
	s := New(testNode(1), gcs.NewStore(1), 30)
	tier := newMapTier()
	s.SetSpillTier(tier)
	s.SetRefChecker(oracle.referenced)

	x := testObj(380)
	payload := []byte("restored-x")
	s.Put(x, payload)
	for i := 0; i < 3; i++ { // pressure: x becomes the spilled one
		s.Put(testObj(uint64(381+i)), make([]byte, 10))
	}
	tier.mu.Lock()
	_, spilledX := tier.data[x]
	tier.mu.Unlock()
	if !spilledX {
		t.Fatal("setup: x not spilled")
	}

	oracle.block()
	defer oracle.unblock()
	type result struct {
		data []byte
		ok   bool
	}
	got := make(chan result, 1)
	go func() {
		data, ok := s.Get(x)
		got <- result{data, ok}
	}()
	select {
	case r := <-got:
		if !r.ok || string(r.data) != string(payload) {
			t.Fatalf("Get(x) = %q, %v", r.data, r.ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("restoring Get blocked on the refcount oracle during re-admission")
	}
	// Re-admission happened (the victim spilled without an oracle verdict).
	if s.Used() != 30 || s.SpilledBytes() != 10 {
		t.Fatalf("after readmit: used %d spilled %d, want 30/10", s.Used(), s.SpilledBytes())
	}
}

// blockingCtrl wraps a control plane so AddObjectLocation hangs until the
// gate opens — an unreachable GCS head mid-failover.
type blockingCtrl struct {
	gcs.API
	gate chan struct{}
}

func (c *blockingCtrl) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	<-c.gate
	c.API.AddObjectLocation(id, node, size)
}

// TestPutWakesWaitersBeforePublish: local waiters, which the arrival hook
// wakes, consume bytes that are already resident; an unreachable control
// plane must not delay them. The publish still lands (in order) once the
// control plane recovers.
func TestPutWakesWaitersBeforePublish(t *testing.T) {
	inner := gcs.NewStore(1)
	ctrl := &blockingCtrl{API: inner, gate: make(chan struct{})}
	s := New(testNode(1), ctrl, 0)
	id := testObj(370)
	w := make(chan types.ObjectID, 1)
	s.SetArrivalHook(func(id types.ObjectID) { w <- id })
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(id, []byte("x")) }()
	select {
	case <-w:
		// Woken while AddObjectLocation is still hung: correct order.
	case <-time.After(2 * time.Second):
		t.Fatal("local waiter blocked behind the control-plane publish")
	}
	if _, ok := s.Get(id); !ok {
		t.Fatal("object not readable after waiter woke")
	}
	close(ctrl.gate)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	if info, ok := inner.GetObject(id); !ok || !info.HasLocation(s.Node()) {
		t.Fatal("location never published after control plane recovered")
	}
}

// TestRestoreSingleFlight: concurrent Gets of one spilled object must
// collapse into a single tier read.
func TestRestoreSingleFlight(t *testing.T) {
	tier := &countTier{mapTier: newMapTier()}
	s := New(testNode(1), gcs.NewStore(1), 20)
	s.SetSpillTier(tier)
	s.SetRefChecker(func(types.ObjectID) bool { return true })
	a := testObj(330)
	payload := []byte("fifteen-bytes!!")
	s.Put(a, payload)
	s.Put(testObj(331), make([]byte, 15)) // pressure: spills a
	if tier.restoreCalls.Load() != 0 {
		t.Fatal("setup: restore before any Get")
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			data, ok := s.Get(a)
			if !ok || string(data) != string(payload) {
				errs <- "bad data from concurrent restore"
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := tier.restoreCalls.Load(); n != 1 {
		t.Fatalf("restore called %d times, want 1 (single-flight)", n)
	}
}

// TestSpillRollbackOnTierFailure: a failed tier write must re-admit the
// victim (no data loss, accounting intact) and surface ErrStoreFull to the
// Put that needed the room.
func TestSpillRollbackOnTierFailure(t *testing.T) {
	s := New(testNode(1), gcs.NewStore(1), 20)
	s.SetSpillTier(failSpillTier{newMapTier()})
	s.SetRefChecker(func(types.ObjectID) bool { return true })
	a := testObj(340)
	payload := []byte("survives-the-failed-spill")[:15]
	s.Put(a, payload)
	err := s.Put(testObj(341), make([]byte, 10))
	if !errors.Is(err, ErrStoreFull) {
		t.Fatalf("Put with refused spill = %v, want ErrStoreFull", err)
	}
	data, ok := s.Get(a)
	if !ok || string(data) != string(payload) {
		t.Fatal("victim lost after failed spill")
	}
	if s.Used() != 15 || s.SpilledBytes() != 0 {
		t.Fatalf("accounting after rollback: used %d spilled %d", s.Used(), s.SpilledBytes())
	}
}

// TestDeleteDuringSpill: deleting the victim while its tier write is in
// flight must settle accounting exactly once, leave no tier file behind,
// and let the evicting Put complete.
func TestDeleteDuringSpill(t *testing.T) {
	tier := newGateTier()
	s := New(testNode(1), gcs.NewStore(1), 20)
	s.SetSpillTier(tier)
	s.SetRefChecker(func(types.ObjectID) bool { return true })
	a, b := testObj(350), testObj(351)
	s.Put(a, make([]byte, 15))
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(b, make([]byte, 10)) }()
	<-tier.enter // spill of a is mid-write
	if !s.Delete(a) {
		t.Fatal("Delete of spilling entry returned false")
	}
	close(tier.release)
	if err := <-putDone; err != nil {
		t.Fatalf("evicting Put: %v", err)
	}
	if s.Contains(a) {
		t.Fatal("deleted entry still present")
	}
	// The spiller's finalize must have cleaned up the file it wrote.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tier.mu.Lock()
		_, fileLeft := tier.data[a]
		tier.mu.Unlock()
		if !fileLeft {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tier file leaked after Delete raced an in-flight spill")
		}
		time.Sleep(time.Millisecond)
	}
	if s.Used() != 10 || s.SpilledBytes() != 0 {
		t.Fatalf("accounting: used %d spilled %d, want 10/0", s.Used(), s.SpilledBytes())
	}
}

// TestDeleteDuringRestore: a Delete racing an in-flight restore must not
// corrupt accounting; the concurrent Get may serialize before the Delete
// (serving the bytes) or after it (reporting absent) — both are legal.
func TestDeleteDuringRestore(t *testing.T) {
	tier := newGateRestoreTier()
	s := New(testNode(1), gcs.NewStore(1), 20)
	s.SetSpillTier(tier)
	s.SetRefChecker(func(types.ObjectID) bool { return true })
	a, b := testObj(360), testObj(361)
	payload := []byte("restored-bytes!")[:15]
	s.Put(a, payload)
	s.Put(b, make([]byte, 15)) // spills a
	type res struct {
		data []byte
		ok   bool
	}
	getDone := make(chan res, 1)
	go func() {
		data, ok := s.Get(a)
		getDone <- res{data, ok}
	}()
	<-tier.enter // restore of a is mid-read
	if !s.Delete(a) {
		t.Fatal("Delete of restoring entry returned false")
	}
	close(tier.release)
	r := <-getDone
	if r.ok && string(r.data) != string(payload) {
		t.Fatal("Get served corrupt bytes across a racing Delete")
	}
	if s.Contains(a) {
		t.Fatal("deleted entry still present")
	}
	if s.Used() != 15 || s.SpilledBytes() != 0 {
		t.Fatalf("accounting: used %d spilled %d, want 15/0", s.Used(), s.SpilledBytes())
	}
}

// TestStateMachineStressRace hammers Put/Get/GetRange/Delete against
// spill/restore with a deliberately slow tier and a refcount oracle that
// blocks mid-run (simulated shard failover). Run under -race. Asserts no
// lost bytes (every surviving object reads back exactly), no double-freed
// accounting (recomputed from the entry table), and a drained publish
// pipeline that matches the control plane.
func TestStateMachineStressRace(t *testing.T) {
	const (
		workers   = 8
		perWorker = 24
		objSize   = 1 << 10
		capacity  = 48 << 10 // working set is 4x memory
	)
	ctrl := gcs.NewStore(8)
	oracle := &blockableOracle{}
	tier := slowTier{newMapTier(), 200 * time.Microsecond}
	s := New(testNode(1), ctrl, capacity)
	s.SetSpillTier(tier)
	s.SetRefChecker(oracle.referenced)

	payload := func(i int) []byte {
		buf := make([]byte, objSize)
		for j := range buf {
			buf[j] = byte(i * (j + 1))
		}
		return buf
	}
	obj := func(i int) types.ObjectID { return testObj(uint64(400 + i)) }

	// present[i] is owned by worker i/perWorker: true after Put, false
	// after Delete. Readers of any object only verify content, never
	// presence (presence races are the point).
	var present [workers * perWorker]atomic.Bool

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			base := w * perWorker
			for step := 0; ; step++ {
				select {
				case <-stop:
					return
				default:
				}
				i := base + rnd.Intn(perWorker)
				switch rnd.Intn(10) {
				case 0: // delete own object
					if s.Delete(obj(i)) {
						present[i].Store(false)
					}
				case 1, 2: // (re-)put own object
					if err := s.Put(obj(i), payload(i)); err != nil {
						fail <- "Put: " + err.Error()
						return
					}
					present[i].Store(true)
				case 3, 4: // range-read any object
					j := rnd.Intn(workers * perWorker)
					off := int64(rnd.Intn(objSize))
					if data, ok := s.GetRange(obj(j), off, 128); ok {
						want := payload(j)[off:min(off+128, objSize)]
						if string(data) != string(want) {
							fail <- "GetRange returned wrong bytes"
							return
						}
					}
				default: // read any object
					j := rnd.Intn(workers * perWorker)
					if data, ok := s.Get(obj(j)); ok {
						if len(data) != objSize || data[1] != byte(j*2) {
							fail <- "Get returned wrong bytes"
							return
						}
					}
				}
			}
		}(w)
	}

	// Shake the failover window twice: oracle hangs, in-flight evictions
	// park outside the lock, then resume.
	for round := 0; round < 2; round++ {
		time.Sleep(50 * time.Millisecond)
		oracle.block()
		time.Sleep(20 * time.Millisecond)
		oracle.unblock()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Quiesce: wait out in-flight transitions and the publish pipeline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		idle := s.inflight == 0 && len(s.pubActive) == 0
		s.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never quiesced")
		}
		time.Sleep(time.Millisecond)
	}

	// Accounting invariant: used/spilled recomputed from the entry table
	// must match the maintained counters — a double-free or lost update
	// diverges here.
	s.mu.Lock()
	var used, spilled int64
	for _, e := range s.objects {
		switch e.state {
		case stateResident, stateSpilling:
			used += e.size
		case stateSpilled, stateRestoring:
			spilled += e.size
		}
	}
	gotUsed, gotSpilled := s.used, s.spilled
	lruLen := s.lru.len
	s.mu.Unlock()
	if used != gotUsed || spilled != gotSpilled {
		t.Fatalf("accounting drift: counters used=%d spilled=%d, entries used=%d spilled=%d",
			gotUsed, gotSpilled, used, spilled)
	}
	if gotUsed > capacity {
		t.Fatalf("used %d exceeds capacity %d after quiesce", gotUsed, capacity)
	}
	if lruLen > len(s.objects) {
		t.Fatalf("LRU list (%d) larger than object table (%d)", lruLen, len(s.objects))
	}

	// No lost bytes: every object whose owner last Put it must read back
	// exactly (resident or restored from the tier).
	for i := 0; i < workers*perWorker; i++ {
		if !present[i].Load() {
			continue
		}
		data, ok := s.Get(obj(i))
		if !ok {
			t.Fatalf("object %d lost: last owner op was Put", i)
		}
		want := payload(i)
		if string(data) != string(want) {
			t.Fatalf("object %d corrupt after stress", i)
		}
		// The publish pipeline has drained: the control plane must agree.
		if info, ok := ctrl.GetObject(obj(i)); !ok || !info.HasLocation(s.Node()) {
			t.Fatalf("object %d present locally but location not published", i)
		}
	}
}
