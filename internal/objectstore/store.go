// Package objectstore implements the per-node in-memory object store from
// the paper's Figure 3 ("Shared Memory / Object Store"). Workers on a node
// share one store; objects are immutable byte blobs keyed by ObjectID.
// Because workers here are goroutines in one address space, an in-process
// store is the faithful analogue of the paper's shared-memory store; the
// inter-node pull protocol lives in transfer.go.
//
// Under memory pressure the store cooperates with the lifetime subsystem
// (internal/lifetime): referenced-but-cold objects spill to a disk tier
// instead of being dropped, and Get transparently restores them, so a
// working set larger than memory degrades gracefully instead of failing
// with ErrStoreFull.
//
// Concurrency model (DESIGN.md §8): every entry carries a small state
// machine (resident / spilling / spilled / restoring / dropping), and the
// store mutex protects only state transitions and accounting — never tier
// I/O, never the refcount oracle, never control-plane RPCs. A disk write,
// a restore read, or a GCS call that blocks for seconds (a shard mid-
// failover) therefore stalls only the operation that needs it; Get and
// Contains of every other object stay at memory speed. Control-plane
// location updates flow through a per-object publish pipeline that keeps
// them ordered without ever being issued under the lock, and tier-file
// removals are fenced against in-flight tier writes of the same object.
package objectstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/types"
)

// ErrStoreFull is returned when a Put cannot fit even after evicting or
// spilling every unpinned object.
var ErrStoreFull = errors.New("objectstore: store full")

// SpillTier is the disk tier the store spills cold objects to.
// lifetime.DiskSpiller is the production implementation; tests may fake it.
// Implementations must tolerate Remove of an absent object and overwriting
// Spill of a present one, and must be safe for concurrent use: the store
// calls them outside its mutex.
type SpillTier interface {
	Spill(id types.ObjectID, data []byte) error
	Restore(id types.ObjectID) ([]byte, error)
	Remove(id types.ObjectID) error
}

// RangeReader is optionally implemented by spill tiers that can serve a
// byte range without reading the whole object (DiskSpiller can). GetRange
// uses it so a peer chunk-pulling a large spilled object costs O(range)
// disk reads per chunk instead of O(object).
type RangeReader interface {
	RestoreRange(id types.ObjectID, offset, length int64) ([]byte, error)
}

// BoundedSpiller is optionally implemented by spill tiers whose Spill may
// consult a control-plane oracle (DiskSpiller's budget eviction probes the
// refcount oracle before reclaiming files). SpillBounded must never issue
// such probes: it writes the object only if it fits the tier's budget
// as-is and fails fast otherwise. The restore re-admission path uses it so
// a Get's latency stays "disk, never control plane" even when the disk
// budget is exhausted during a failover.
type BoundedSpiller interface {
	SpillBounded(id types.ObjectID, data []byte) error
}

// entryState is one node of the per-entry state machine. Transitions
// happen only under Store.mu; the I/O that separates paired states
// (spilling→spilled, restoring→resident) runs outside the lock.
type entryState uint8

const (
	// stateResident: bytes in memory, entry linked on the LRU list.
	stateResident entryState = iota
	// stateSpilling: claimed by an evictor; the refcount-oracle verdict
	// and the tier write (or the drop) are in flight. Bytes are still in
	// memory and still count toward used; Get serves them.
	stateSpilling
	// stateSpilled: bytes live on the spill tier only.
	stateSpilled
	// stateRestoring: a single-flight tier read is in flight; concurrent
	// Gets wait on the flight instead of each re-reading the file.
	stateRestoring
	// stateDropping: removed from the objects map; in-flight transitions
	// that still hold the entry pointer see this (or fail the map identity
	// check) and finalize as no-ops.
	stateDropping
)

// restoreFlight is the single-flight handle for one in-flight restore.
// done is closed as soon as data/err are set — before any re-admission
// bookkeeping — so waiters unblock at disk-read latency, not disk-read
// plus eviction latency.
type restoreFlight struct {
	done chan struct{}
	data []byte
	err  error
}

type entry struct {
	id     types.ObjectID
	data   []byte
	size   int64 // == len(data) when resident; survives data=nil on spill
	pinned int
	state  entryState

	// restore is non-nil exactly while state == stateRestoring.
	restore *restoreFlight

	// Intrusive LRU linkage, valid while the entry is on the list
	// (state == stateResident). Most recently used at front.
	prev, next *entry

	// announced is set once the entry's location is queued for the control
	// plane. A PutDeferred entry starts without it (DESIGN.md §17, "Held-back
	// locations"); only an announced copy is ever deregistered.
	announced bool
}

// lruList is an intrusive doubly-linked list over resident entries with a
// sentinel head; maintaining it on touch makes victim selection O(1) per
// victim instead of the old O(n) coldest-scan (O(n²) eviction storms).
type lruList struct {
	head entry // sentinel: head.next = MRU, head.prev = LRU
	len  int
}

func (l *lruList) init() {
	l.head.prev, l.head.next = &l.head, &l.head
	l.len = 0
}

func (l *lruList) pushFront(e *entry) {
	e.prev, e.next = &l.head, l.head.next
	l.head.next.prev = e
	l.head.next = e
	l.len++
}

func (l *lruList) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.len--
}

func (l *lruList) moveFront(e *entry) {
	l.remove(e)
	l.pushFront(e)
}

// coldestUnpinned returns the least recently used unpinned entry, or nil.
// Pinned entries stay linked (they will be unpinned soon) and are skipped.
func (l *lruList) coldestUnpinned() *entry {
	for e := l.head.prev; e != &l.head; e = e.prev {
		if e.pinned == 0 {
			return e
		}
	}
	return nil
}

// pubOp is one queued control-plane call about an object.
type pubOp func(ctrl gcs.API)

// Store holds this node's objects. All methods are safe for concurrent use.
type Store struct {
	node types.NodeID
	ctrl gcs.API

	mu       sync.Mutex
	objects  map[types.ObjectID]*entry
	lru      lruList
	capacity int64 // bytes; 0 = unlimited
	used     int64 // memory-resident bytes (includes stateSpilling entries)
	spilled  int64 // bytes on the spill tier (includes stateRestoring entries)
	failed   bool
	// dropGen counts DropAll generations: a goroutine holding a memory
	// reservation across an unlocked section must not give it back after a
	// wholesale counter reset has already discarded it.
	dropGen uint64

	// evictDone is signalled whenever an in-flight spill/drop finalizes or
	// an entry is removed, so an evictor that found no victim but knows
	// transitions are in flight can wait for freed bytes instead of
	// failing spuriously.
	evictDone *sync.Cond
	inflight  int // entries in stateSpilling

	// tierWrites counts in-flight tier writes per object; tierRemoveWant
	// marks objects whose file should be removed once the last write
	// lands; tierRemovals counts removal verdicts issued but not yet
	// executed, and the eviction claim path refuses to start a new spill
	// write of an id while one is pending. Together they fence Remove
	// against Spill of the same id in both directions (see
	// shouldRemoveTierLocked and makeRoomLocked).
	tierWrites     map[types.ObjectID]int
	tierRemoveWant map[types.ObjectID]bool
	tierRemovals   map[types.ObjectID]int

	// Per-object publish pipeline: control-plane calls are enqueued under
	// mu (so their order matches transition commit order) and executed
	// outside it by whichever goroutine holds the object's drain flag.
	pubq      map[types.ObjectID][]pubOp
	pubActive map[types.ObjectID]bool

	// tier, when non-nil, enables the disk spill path.
	tier SpillTier
	// referenced reports whether an object still has live references; nil
	// means unknown. With a spill tier attached, referenced objects spill
	// under pressure while garbage is dropped outright. It is a control-
	// plane RPC and is only ever called outside mu.
	referenced func(types.ObjectID) bool
	// arrived, when set, is told of every object Put stores (SetArrivalHook).
	arrived func(types.ObjectID)

	spills   int64
	restores int64

	// guard is the build-tag-gated pinned-buffer mutation detector: a no-op
	// in release builds, a checksum-at-Pin / verify-at-Unpin tripwire under
	// -tags storedebug (see store_guard_debug.go). Its hooks run under mu.
	guard pinGuard

	// obs holds pre-resolved instruments (SetObservability). All fields
	// are nil-safe: an un-instrumented store pays one nil check per site.
	obs storeObs
}

// storeObs bundles the store's instruments and tracer so hot paths touch
// pre-resolved pointers, never the registry.
type storeObs struct {
	puts, gets, misses *metrics.Counter
	drops              *metrics.Counter
	pushReceived       *metrics.Counter
	spillBytes         *metrics.Counter
	restoreBytes       *metrics.Counter
	spillNs            *metrics.Histogram
	restoreNs          *metrics.Histogram
	tracer             *metrics.Tracer
}

// ErrFailed is returned by Put after the store has crashed (Fail).
var ErrFailed = errors.New("objectstore: store failed")

// New creates a store for node, registering locations with ctrl. capacity
// of 0 means unlimited.
func New(node types.NodeID, ctrl gcs.API, capacity int64) *Store {
	s := &Store{
		node:           node,
		ctrl:           ctrl,
		objects:        make(map[types.ObjectID]*entry),
		capacity:       capacity,
		tierWrites:     make(map[types.ObjectID]int),
		tierRemoveWant: make(map[types.ObjectID]bool),
		tierRemovals:   make(map[types.ObjectID]int),
		pubq:           make(map[types.ObjectID][]pubOp),
		pubActive:      make(map[types.ObjectID]bool),
	}
	s.lru.init()
	s.evictDone = sync.NewCond(&s.mu)
	return s
}

// SetObservability attaches a metrics registry and span tracer (either may
// be nil). Call before the store serves traffic. Gauges for residency are
// sampled at snapshot time via GaugeFunc — the store already tracks them
// and mirroring on every mutation would be wasted work.
func (s *Store) SetObservability(reg *metrics.Registry, tracer *metrics.Tracer) {
	s.obs = storeObs{
		puts:         reg.Counter("objectstore.puts"),
		gets:         reg.Counter("objectstore.gets"),
		misses:       reg.Counter("objectstore.get.misses"),
		drops:        reg.Counter("objectstore.drops"),
		pushReceived: reg.Counter("objectstore.push.received"),
		spillBytes:   reg.Counter("objectstore.spill.bytes"),
		restoreBytes: reg.Counter("objectstore.restore.bytes"),
		spillNs:      reg.Histogram("objectstore.spill.ns"),
		restoreNs:    reg.Histogram("objectstore.restore.ns"),
		tracer:       tracer,
	}
	if reg != nil {
		reg.GaugeFunc("objectstore.used.bytes", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.used
		})
		reg.GaugeFunc("objectstore.spilled.bytes", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.spilled
		})
		reg.GaugeFunc("objectstore.objects", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.objects))
		})
		reg.GaugeFunc("objectstore.spills", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.spills
		})
		reg.GaugeFunc("objectstore.restores", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.restores
		})
	}
}

// Node returns the owning node's ID.
func (s *Store) Node() types.NodeID { return s.node }

// SetSpillTier attaches the disk spill tier. Call before the store is
// shared; typically at node construction.
func (s *Store) SetSpillTier(t SpillTier) {
	s.mu.Lock()
	s.tier = t
	s.mu.Unlock()
}

// SetRefChecker installs the liveness oracle consulted during eviction
// (typically a lookup of the object table's refcount). Call before the
// store is shared.
func (s *Store) SetRefChecker(fn func(types.ObjectID) bool) {
	s.mu.Lock()
	s.referenced = fn
	s.mu.Unlock()
}

// SetArrivalHook installs fn, which Put and PutDeferred call with every
// object they store: on the storing goroutine, before any publish of its
// location. It is the store's one arrival edge, which wakes the node's
// local consumers of the object (scheduler.depTable). Call before the
// store is shared.
func (s *Store) SetArrivalHook(fn func(types.ObjectID)) {
	s.mu.Lock()
	s.arrived = fn
	s.mu.Unlock()
}

// --- publish pipeline ---

// enqueuePublishLocked queues a control-plane call about id in transition
// commit order. Caller holds s.mu and must call drainPublishes(id) after
// releasing it iff the return value is true (it became the drainer).
func (s *Store) enqueuePublishLocked(id types.ObjectID, op pubOp) bool {
	s.pubq[id] = append(s.pubq[id], op)
	if s.pubActive[id] {
		return false
	}
	s.pubActive[id] = true
	return true
}

// announceLocked queues e's location for the control plane. Caller holds
// s.mu and must call drainPublishes(e.id) after releasing it iff the
// return value is true.
func (s *Store) announceLocked(e *entry) bool {
	e.announced = true
	id, size := e.id, e.size
	return s.enqueuePublishLocked(id, func(ctrl gcs.API) {
		ctrl.AddObjectLocation(id, s.node, size)
	})
}

// withdrawLocked queues the removal of e's location, if it was ever
// announced: a held-back copy the control plane never heard of leaves
// without a word. Caller holds s.mu and drains e.id iff it returns true.
func (s *Store) withdrawLocked(e *entry) bool {
	if !e.announced {
		return false
	}
	id := e.id
	return s.enqueuePublishLocked(id, func(ctrl gcs.API) {
		ctrl.RemoveObjectLocation(id, s.node)
	})
}

// drainPublishes executes id's queued control-plane calls FIFO, outside
// the lock. Exactly one drainer runs per object at a time, so calls about
// one object stay ordered even when the transitions that queued them
// raced; uncontended callers drain their own op synchronously, so Put and
// Delete keep their publish-before-return behaviour.
func (s *Store) drainPublishes(id types.ObjectID) {
	s.mu.Lock()
	for len(s.pubq[id]) > 0 {
		q := s.pubq[id]
		op := q[0]
		s.pubq[id] = q[1:]
		s.mu.Unlock()
		op(s.ctrl)
		s.mu.Lock()
	}
	delete(s.pubq, id)
	delete(s.pubActive, id)
	s.mu.Unlock()
}

// --- held-back locations (PutDeferred) ---

// Announce publishes the held-back locations of those of ids stored here,
// and says nothing of the others. The publishes it becomes the drainer of
// have landed when it returns.
func (s *Store) Announce(ids ...types.ObjectID) {
	var drains []types.ObjectID
	s.mu.Lock()
	for _, id := range ids {
		if e, ok := s.objects[id]; ok && !e.announced && s.announceLocked(e) {
			drains = append(drains, id)
		}
	}
	s.mu.Unlock()
	for _, id := range drains {
		s.drainPublishes(id)
	}
}

// --- collection at home (DESIGN.md §17) ---

// heldBackLocked reports whether e's copy is one CollectHome could take: in
// memory, held back (PutDeferred) and never announced, with no tier write
// in flight.
func (s *Store) heldBackLocked(e *entry) bool {
	return e.state == stateResident && !e.announced && s.tierWrites[e.id] == 0
}

// CollectHome deletes the copies of ids, without a word to the control
// plane, if every one of them is held back and unpinned; otherwise it
// deletes none. Nothing outside this node ever heard of such a copy.
func (s *Store) CollectHome(ids []types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if e, ok := s.objects[id]; !ok || !s.heldBackLocked(e) || e.pinned > 0 {
			return false
		}
	}
	for _, id := range ids {
		s.removeEntryLocked(s.objects[id])
	}
	return true
}

// --- tier-file fencing ---

// shouldRemoveTierLocked reports whether the caller may remove id's spill
// file right now. It may not when a tier write of id is in flight (the
// removal is recorded and performed by the last write's finalizer) or when
// a live entry other than except still depends on the file. except is the
// caller's own entry during restore re-admission, which removes the file
// it is about to stop depending on. Caller holds s.mu.
func (s *Store) shouldRemoveTierLocked(id types.ObjectID, except *entry) bool {
	if s.tierWrites[id] > 0 {
		s.tierRemoveWant[id] = true
		return false
	}
	if e, ok := s.objects[id]; ok && e != except && e.state != stateResident {
		return false
	}
	return true
}

// finishTierWriteLocked retires one in-flight tier write of id and reports
// whether a deferred removal fell to this caller. Caller holds s.mu.
func (s *Store) finishTierWriteLocked(id types.ObjectID) (removeFile bool) {
	if n := s.tierWrites[id] - 1; n > 0 {
		s.tierWrites[id] = n
		return false
	}
	delete(s.tierWrites, id)
	if !s.tierRemoveWant[id] {
		return false
	}
	delete(s.tierRemoveWant, id)
	return s.shouldRemoveTierLocked(id, nil)
}

// noteRemovalLocked registers a removal verdict that the caller will
// execute after releasing s.mu; makeRoomLocked will not start a new spill
// write of id until it lands. Caller holds s.mu and must pair with
// execRemoval.
func (s *Store) noteRemovalLocked(id types.ObjectID) { s.tierRemovals[id]++ }

// execRemoval performs a removal registered with noteRemovalLocked.
// Called without s.mu.
func (s *Store) execRemoval(tier SpillTier, id types.ObjectID) {
	_ = tier.Remove(id)
	s.mu.Lock()
	if n := s.tierRemovals[id] - 1; n > 0 {
		s.tierRemovals[id] = n
	} else {
		delete(s.tierRemovals, id)
	}
	s.evictDone.Broadcast()
	s.mu.Unlock()
}

// --- core API ---

// Put stores data under id, tells the arrival hook, and then records the
// location in the control plane — in that order, so an unreachable control
// plane never delays local consumers of already-resident bytes. Storing an
// already-present object is a no-op (objects are immutable, so the bytes
// are identical by construction). A copy whose location may wait for the
// object to leave the node is stored with PutDeferred instead.
func (s *Store) Put(id types.ObjectID, data []byte) error { return s.put(id, data, false) }

// PutDeferred is Put for a copy whose location may wait: the return of a
// task submitted through the node that ran it, whose readers are on this
// node until its task's birth lands. The copy is stored and the arrival
// hook told, but the control plane hears of it only when Announce names it or
// when it spills to disk — and never if it is deleted first, as
// CollectHome does to a released return whose task never left its owner.
func (s *Store) PutDeferred(id types.ObjectID, data []byte) error { return s.put(id, data, true) }

func (s *Store) put(id types.ObjectID, data []byte, deferred bool) error {
	size := int64(len(data))
	s.obs.puts.Inc()
	s.mu.Lock()
	for {
		if s.failed {
			s.mu.Unlock()
			return ErrFailed
		}
		if _, exists := s.objects[id]; exists {
			s.mu.Unlock()
			return nil
		}
		if s.capacity <= 0 || s.used+size <= s.capacity {
			break
		}
		if !s.makeRoomLocked(size, false) {
			s.mu.Unlock()
			return fmt.Errorf("%w: need %d bytes, capacity %d", ErrStoreFull, size, s.capacity)
		}
		// makeRoomLocked dropped and reacquired the lock: re-check failed,
		// duplicate-Put, and capacity from scratch.
	}
	e := &entry{id: id, data: data, size: size, state: stateResident}
	s.objects[id] = e
	s.used += size
	s.lru.pushFront(e)
	drain := !deferred && s.announceLocked(e)
	arrived := s.arrived
	s.mu.Unlock()

	// The arrival hook first: it wakes local consumers of bytes that are
	// already here; the control-plane publish can block on a failover and
	// must not gate them.
	if arrived != nil {
		arrived(id)
	}
	if drain {
		s.drainPublishes(id)
	}
	return nil
}

// makeRoomLocked evicts LRU-first over unpinned resident objects until
// size more bytes fit under capacity, re-evaluating the live counters on
// every iteration (so bytes freed by other goroutines' in-flight spills
// are credited, never re-evicted, and never spuriously reported as
// unavailable). Victims transition to stateSpilling under the lock; the
// refcount-oracle verdict, the tier write (or the drop), and the
// control-plane update all run unlocked in spillOrDrop. Caller holds
// s.mu; the lock is dropped and reacquired around every victim, so
// callers must re-validate everything they read before calling.
//
// forRestore marks the restore re-admission path, whose latency budget is
// "disk, never control plane": it skips the refcount oracle and spills
// every victim (spilling garbage is safe — GC deletes it later — whereas
// consulting a failover-blocked oracle would hang the Get), and it gives
// up instead of waiting behind another goroutine's in-flight spill, which
// may itself be wedged on the oracle for a whole failover (the caller
// then serves the bytes without re-admission).
func (s *Store) makeRoomLocked(size int64, forRestore bool) bool {
	for s.capacity > 0 && s.used+size > s.capacity {
		victim := s.lru.coldestUnpinned()
		if victim == nil {
			if s.inflight > 0 && !forRestore {
				// Another goroutine's spill is mid-flight: its bytes will
				// free when it finalizes. Wait for one transition instead
				// of failing spuriously.
				s.evictDone.Wait()
				continue
			}
			return false
		}
		if s.tierRemovals[victim.id] > 0 {
			// A removal of this id's tier file is in flight (a Delete or
			// DropAll that just unmapped an earlier generation): starting
			// a new write now could have its fresh file eaten by the
			// pending unlink. Removals are bare syscalls — wait them out.
			s.evictDone.Wait()
			continue
		}
		victim.state = stateSpilling
		s.lru.remove(victim)
		s.inflight++
		s.tierWrites[victim.id]++
		tier, referenced := s.tier, s.referenced
		if forRestore && tier != nil {
			referenced = nil // nil oracle = spill everything
		}
		s.mu.Unlock()
		ok := s.spillOrDrop(victim, tier, referenced, forRestore)
		s.mu.Lock()
		if !ok {
			return false
		}
	}
	return true
}

// spillOrDrop moves a claimed victim (stateSpilling) out of memory:
// still-referenced objects spill to the tier, garbage is dropped outright.
// Called WITHOUT s.mu held — the refcount oracle is a control-plane RPC
// that can block for seconds during a shard failover, and the tier write
// is disk I/O; neither may stall the data plane. noProbes additionally
// keeps the tier itself from probing the control plane (budget eviction);
// the restore path sets it. Returns false to abort the caller's eviction
// loop (tier write failed or was refused: dropping a referenced object
// would be unsafe, so give up rather than corrupt).
func (s *Store) spillOrDrop(e *entry, tier SpillTier, referenced func(types.ObjectID) bool, noProbes bool) bool {
	id := e.id
	wantSpill := tier != nil && (referenced == nil || referenced(id))

	var wrote bool
	var spillErr error
	if wantSpill {
		sp := s.obs.tracer.Begin("spill", "objectstore.spill")
		start := time.Now()
		if bs, bounded := tier.(BoundedSpiller); bounded && noProbes {
			spillErr = bs.SpillBounded(id, e.data)
		} else {
			spillErr = tier.Spill(id, e.data)
		}
		wrote = spillErr == nil
		s.obs.spillNs.Observe(time.Since(start).Nanoseconds())
		if wrote {
			s.obs.spillBytes.Add(e.size)
			sp.ObjectID = id
			sp.Detail = fmt.Sprintf("%d bytes", e.size)
			sp.End()
		}
	}

	s.mu.Lock()
	s.inflight--
	removeFile := s.finishTierWriteLocked(id)
	ok, drain := true, false
	switch {
	case s.objects[id] != e || e.state != stateSpilling:
		// Deleted (or DropAll) mid-flight: the deleter settled the entry's
		// accounting; our only job is not to leak the file we wrote.
		removeFile = removeFile || (wrote && s.shouldRemoveTierLocked(id, nil))
	case !wantSpill:
		// Drop path: no tier, or the oracle says nothing references it.
		if e.pinned > 0 {
			// A pin landed mid-flight: skip this victim, try the next.
			e.state = stateResident
			s.lru.pushFront(e)
		} else {
			e.state = stateDropping
			delete(s.objects, id)
			s.used -= e.size
			s.obs.drops.Inc()
			drain = s.withdrawLocked(e)
		}
	case spillErr != nil || e.pinned > 0:
		// Rollback: re-admit. A tier failure aborts the whole eviction
		// loop (dropping a referenced object would be unsafe — and a
		// budget-refusing tier must surface as ErrStoreFull, not data
		// loss); a pin that landed mid-flight just skips this victim.
		e.state = stateResident
		s.lru.pushFront(e)
		removeFile = removeFile || (wrote && s.shouldRemoveTierLocked(id, nil))
		ok = spillErr == nil
	default:
		s.used -= e.size
		s.spilled += e.size
		s.spills++
		e.data = nil
		e.state = stateSpilled
		// A held-back copy is announced first: the control plane drops a
		// spill mark for a node it does not list as a location.
		if !e.announced {
			drain = s.announceLocked(e)
		}
		drain = s.enqueuePublishLocked(id, func(ctrl gcs.API) {
			ctrl.MarkObjectSpilled(id, s.node, true)
		}) || drain
	}
	if removeFile {
		s.noteRemovalLocked(id)
	}
	s.evictDone.Broadcast()
	s.mu.Unlock()
	if removeFile {
		s.execRemoval(tier, id)
	}
	if drain {
		s.drainPublishes(id)
	}
	return ok
}

// Get returns the object's bytes if locally present, transparently
// restoring spilled objects from the disk tier. Restores are single-flight:
// concurrent Gets of a restoring object wait on the in-flight read instead
// of each re-reading the file. A Get of a memory-resident object never
// performs or waits for I/O, no matter what other entries are doing.
func (s *Store) Get(id types.ObjectID) ([]byte, bool) {
	s.obs.gets.Inc()
	s.mu.Lock()
	e, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		s.obs.misses.Inc()
		return nil, false
	}
	switch e.state {
	case stateResident:
		s.lru.moveFront(e)
		data := e.data
		s.mu.Unlock()
		return data, true
	case stateSpilling:
		// The tier write is in flight but the bytes are still in memory
		// (immutable; the spiller only clears them at finalize, under mu).
		data := e.data
		s.mu.Unlock()
		return data, true
	case stateRestoring:
		f := e.restore
		s.mu.Unlock()
		<-f.done
		return f.data, f.err == nil
	case stateSpilled:
		return s.restore(e) // releases s.mu
	default: // stateDropping — cannot be in the map, but be safe
		s.mu.Unlock()
		return nil, false
	}
}

// restore performs the single-flight tier read for a spilled entry. Called
// with s.mu held and e.state == stateSpilled; releases the lock around the
// disk read. On failure the disk copy is gone or corrupt — the local copy
// is lost, so the entry is dropped and the control plane can mark the
// object Lost for lineage replay. On success the object is re-admitted to
// memory if it fits (possibly spilling colder objects); otherwise the
// bytes are served while the entry stays on disk, so a single oversized
// read cannot wedge the store.
func (s *Store) restore(e *entry) ([]byte, bool) {
	id := e.id
	f := &restoreFlight{done: make(chan struct{})}
	e.state = stateRestoring
	e.restore = f
	tier := s.tier
	s.mu.Unlock()

	sp := s.obs.tracer.Begin("restore", "objectstore.restore")
	start := time.Now()
	data, err := tier.Restore(id)
	if err == nil && int64(len(data)) != e.size {
		err = fmt.Errorf("objectstore: restore %v: got %d bytes, want %d", id, len(data), e.size)
	}
	s.obs.restoreNs.Observe(time.Since(start).Nanoseconds())
	if err == nil {
		s.obs.restoreBytes.Add(int64(len(data)))
		sp.ObjectID = id
		sp.Detail = fmt.Sprintf("%d bytes", len(data))
		sp.End()
	}

	s.mu.Lock()
	if err != nil {
		f.err = err
		close(f.done)
		if s.objects[id] == e {
			s.removeEntryLocked(e)
			// A corrupt (size-mismatched) file may still exist: clean it up
			// along with the entry.
			removeFile := s.shouldRemoveTierLocked(id, nil)
			if removeFile {
				s.noteRemovalLocked(id)
			}
			drain := s.withdrawLocked(e)
			s.mu.Unlock()
			if removeFile {
				s.execRemoval(tier, id)
			}
			if drain {
				s.drainPublishes(id)
			}
			return nil, false
		}
		s.mu.Unlock()
		return nil, false
	}
	f.data = data
	s.restores++
	close(f.done) // waiters unblock now; re-admission is our problem alone

	serveWithoutReadmit := func() ([]byte, bool) {
		// Deleted while restoring (the deleter settled accounting and the
		// control plane — serving the already-read bytes to our waiters is
		// the valid serialization "Get before Delete"), or memory cannot
		// fit it: hand out the bytes, leave the tier copy authoritative.
		if s.objects[id] == e && e.state == stateRestoring {
			e.state = stateSpilled
			e.restore = nil
		}
		s.mu.Unlock()
		return data, true
	}
	for {
		if s.objects[id] != e || e.state != stateRestoring {
			return serveWithoutReadmit()
		}
		if s.capacity <= 0 || s.used+e.size <= s.capacity {
			break
		}
		if !s.makeRoomLocked(e.size, true) {
			return serveWithoutReadmit()
		}
		// makeRoomLocked dropped the lock: re-validate entry and capacity.
	}
	// Reserve the memory, then clear the tier copy while the entry is still
	// stateRestoring — it is off the LRU list, so no evictor can claim it
	// and race a fresh spill file against this removal.
	s.used += e.size
	gen := s.dropGen
	if s.shouldRemoveTierLocked(id, e) {
		// Fence the unlink like every other removal: this entry cannot be
		// re-claimed (off the LRU list), but a Delete + re-Put racing this
		// window creates a successor generation whose fresh spill must not
		// start until the unlink lands.
		s.noteRemovalLocked(id)
		s.mu.Unlock()
		s.execRemoval(tier, id)
		s.mu.Lock()
		if s.objects[id] != e {
			// Deleted during the tier remove: un-reserve — unless a DropAll
			// already reset the counters wholesale, discarding the
			// reservation along with everything else.
			if s.dropGen == gen {
				s.used -= e.size
			}
			s.mu.Unlock()
			return data, true
		}
	}
	e.data = data
	e.state = stateResident
	e.restore = nil
	s.spilled -= e.size
	s.lru.pushFront(e)
	drain := s.enqueuePublishLocked(id, func(ctrl gcs.API) {
		ctrl.MarkObjectSpilled(id, s.node, false)
	})
	s.mu.Unlock()
	if drain {
		s.drainPublishes(id)
	}
	return data, true
}

// removeEntryLocked unmaps an entry and settles its share of the
// accounting according to the state it was removed in. In-flight
// transitions that still hold the pointer observe stateDropping (or fail
// the map identity check) and finalize as no-ops. Caller holds s.mu.
func (s *Store) removeEntryLocked(e *entry) {
	switch e.state {
	case stateResident:
		s.used -= e.size
		s.lru.remove(e)
	case stateSpilling:
		// Bytes still counted as memory until the spill finalizes — and it
		// now never will (identity check): settle the memory side here. The
		// spiller cleans up any file it wrote.
		s.used -= e.size
	case stateSpilled, stateRestoring:
		s.spilled -= e.size
	}
	e.state = stateDropping
	delete(s.objects, e.id)
	s.evictDone.Broadcast()
}

// GetRange returns up to length bytes of the object at offset. Memory
// entries serve a slice; spilled entries are served straight from the
// tier's range reader without re-admission, so chunked transfers of a
// spilled object neither thrash the memory tier nor re-read the whole
// file per chunk. Returns false when the object is absent or offset is
// out of range.
func (s *Store) GetRange(id types.ObjectID, offset, length int64) ([]byte, bool) {
	// The tier read runs outside the lock, so a concurrent restore or
	// delete can remove the file mid-read; on failure, retry against the
	// entry's new state (a restored object serves from memory) and only
	// report absent when the entry is truly gone.
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		e, ok := s.objects[id]
		if !ok || offset < 0 || length <= 0 || (offset > 0 && offset >= e.size) {
			s.mu.Unlock()
			return nil, false
		}
		if e.size == 0 {
			// Zero-byte object: a (0, n) read is valid and yields the empty
			// payload, matching Get — without this, empty objects were
			// range-readable nowhere (offset >= size held for every offset)
			// even though whole-object reads served them fine.
			s.mu.Unlock()
			return []byte{}, true
		}
		want := length
		if offset+want > e.size {
			want = e.size - offset
		}
		switch e.state {
		case stateResident, stateSpilling:
			if e.state == stateResident {
				s.lru.moveFront(e)
			}
			data := e.data[offset : offset+want]
			s.mu.Unlock()
			return data, true
		case stateRestoring:
			f := e.restore
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, false
			}
			return f.data[offset : offset+want], true
		case stateSpilled:
			rr, canRange := s.tier.(RangeReader)
			if !canRange {
				s.mu.Unlock()
				// Tier without range support: full restore via Get (which
				// may re-admit the object to memory).
				data, ok := s.Get(id)
				if !ok || offset >= int64(len(data)) {
					return nil, false
				}
				end := offset + length
				if end > int64(len(data)) {
					end = int64(len(data))
				}
				return data[offset:end], true
			}
			s.mu.Unlock()
			data, err := rr.RestoreRange(id, offset, want)
			if err == nil && int64(len(data)) == want {
				return data, true
			}
			if attempt >= 3 {
				return nil, false
			}
			// File vanished mid-read (concurrent restore or delete): loop
			// and re-resolve the entry's state.
		default:
			s.mu.Unlock()
			return nil, false
		}
	}
}

// Contains reports local presence (memory or spill tier) without touching
// LRU state. It never waits on tier I/O or control-plane calls.
func (s *Store) Contains(id types.ObjectID) bool {
	s.mu.Lock()
	_, ok := s.objects[id]
	s.mu.Unlock()
	return ok
}

// ContainsEach is Contains for many objects under one lock: it marks
// found[i] for each ids[i] held here that is not marked yet, and returns how
// many it marked.
func (s *Store) ContainsEach(ids []types.ObjectID, found []bool) int {
	n := 0
	s.mu.Lock()
	for i, id := range ids {
		if !found[i] {
			if _, ok := s.objects[id]; ok {
				found[i] = true
				n++
			}
		}
	}
	s.mu.Unlock()
	return n
}

// Pin prevents eviction of id while a worker uses its buffer.
func (s *Store) Pin(id types.ObjectID) {
	s.mu.Lock()
	if e, ok := s.objects[id]; ok {
		e.pinned++
		s.guard.onPin(id, e.data)
	}
	s.mu.Unlock()
}

// Unpin releases a Pin.
func (s *Store) Unpin(id types.ObjectID) {
	s.mu.Lock()
	if e, ok := s.objects[id]; ok && e.pinned > 0 {
		e.pinned--
		s.guard.onUnpin(id, e.data, e.pinned)
	}
	s.mu.Unlock()
}

// PinCount reports id's current pin count (test hook: pin-balance
// assertions for the gather/unwind paths).
func (s *Store) PinCount(id types.ObjectID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.objects[id]; ok {
		return e.pinned
	}
	return 0
}

// Delete removes id locally (memory and spill tier) and deregisters the
// location. An in-flight spill or restore of the entry observes the
// removal at finalize time and settles to a no-op; the entry's accounting
// share is settled here, exactly once.
func (s *Store) Delete(id types.ObjectID) bool { return s.DeleteThen(id, nil) }

// DeleteThen is Delete that, if it removed a copy, runs landed once the
// control plane no longer lists it: after the deregistration lands, which
// may be on another goroutine draining id's publishes, or at once for a
// copy that was never announced. landed must not block.
func (s *Store) DeleteThen(id types.ObjectID, landed func()) bool {
	s.mu.Lock()
	e, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	tier := s.tier
	// Only spilled/restoring entries (or one with a write in flight, whose
	// cleanup shouldRemoveTierLocked defers to the writer) can have a tier
	// file; never-spilled residents skip the unlink and its fencing.
	mayHaveFile := e.state == stateSpilled || e.state == stateRestoring || s.tierWrites[id] > 0
	s.removeEntryLocked(e)
	removeFile := tier != nil && mayHaveFile && s.shouldRemoveTierLocked(id, nil)
	if removeFile {
		s.noteRemovalLocked(id)
	}
	drain := s.withdrawLocked(e)
	if landed != nil {
		drain = s.enqueuePublishLocked(id, func(gcs.API) { landed() }) || drain
	}
	s.mu.Unlock()
	if removeFile {
		s.execRemoval(tier, id)
	}
	if drain {
		s.drainPublishes(id)
	}
	return true
}

// Fail simulates the node's memory vanishing in a crash: every object is
// dropped and all future Puts fail, so in-flight tasks on a killed node
// cannot resurrect locations for a store that no longer exists (R6 failure
// injection).
func (s *Store) Fail() {
	s.mu.Lock()
	s.failed = true
	s.mu.Unlock()
	s.DropAll()
}

// DropAll removes every object, as when a node's memory is lost in a crash
// (failure injection, R6). Spill files die with the node too. Locations are
// deregistered so the control plane marks sole copies Lost.
func (s *Store) DropAll() {
	s.mu.Lock()
	tier := s.tier
	type victim struct {
		id         types.ObjectID
		removeFile bool
		drainer    bool
	}
	victims := make([]victim, 0, len(s.objects))
	for id, e := range s.objects {
		mayHaveFile := e.state == stateSpilled || e.state == stateRestoring ||
			e.state == stateSpilling || s.tierWrites[id] > 0
		e.state = stateDropping
		delete(s.objects, id)
		v := victim{id: id, removeFile: tier != nil && mayHaveFile && s.shouldRemoveTierLocked(id, nil)}
		if v.removeFile {
			s.noteRemovalLocked(id)
		}
		v.drainer = s.withdrawLocked(e)
		victims = append(victims, v)
	}
	s.lru.init()
	s.used = 0
	s.spilled = 0
	s.dropGen++
	s.evictDone.Broadcast()
	s.mu.Unlock()
	for _, v := range victims {
		if v.removeFile {
			s.execRemoval(tier, v.id)
		}
	}
	for _, v := range victims {
		if v.drainer {
			s.drainPublishes(v.id)
		}
	}
}

// Used returns memory-resident bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// SpilledBytes returns bytes currently on the spill tier.
func (s *Store) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// Count returns the number of resident objects (memory + spilled).
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Resident snapshots the IDs of every locally-held object (memory and
// spill tier). The drain migration driver iterates it; the snapshot is
// advisory — objects may arrive or vanish after it is taken, which the
// driver handles by re-listing until the store is empty.
func (s *Store) Resident() []types.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.ObjectID, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	return out
}

// Stats snapshots usage for heartbeats and dashboards. Reclaimed and
// TierEvictions are owned by the lifetime subsystem and filled in by the
// node.
func (s *Store) Stats() types.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return types.StoreStats{
		UsedBytes:    s.used,
		SpilledBytes: s.spilled,
		Objects:      len(s.objects),
		Spills:       s.spills,
		Restores:     s.restores,
	}
}
