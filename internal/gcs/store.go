package gcs

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/kv"
	"repro/internal/types"
)

// Store is the kv-backed control plane. It is the only stateful component
// in the system; everything else can crash and resubscribe.
type Store struct {
	db    kv.DB
	epoch time.Time
	// eventsOn gates event logging so its overhead can be measured (E13).
	eventsOn atomic.Bool
	// telemetry holds published node metrics and data-plane spans —
	// in-memory only, never WAL'd (see telemetry.go).
	telemetry telemetry
}

// NewStore creates a control plane over a kv store with the given shard
// count. Event logging starts enabled.
func NewStore(shards int) *Store {
	return RecoverStore(kv.New(shards))
}

// RecoverStore wraps an existing kv database — a bare in-memory store, one
// reconstituted from a snapshot plus write-ahead-log replay (kv.Restore,
// kv.Replay, kv.RecoverDir), or a WAL-teeing kv.Logger — as a control
// plane. This is the database-side half of the Section 3.2.1 fault-
// tolerance story: the control state survives a control-plane crash, and
// the stateless components simply reconnect and resubscribe.
//
// The clock epoch is itself part of the durable state (keyMetaEpoch): the
// first incarnation stamps it, and every recovery re-reads it, so NowNs
// stays monotonic across incarnations and recorded timelines from before
// and after a crash remain comparable.
func RecoverStore(db kv.DB) *Store {
	s := &Store{db: db, epoch: time.Now()}
	if raw, ok := db.Get(keyMetaEpoch); ok {
		if ns, err := codec.DecodeAs[int64](raw); err == nil {
			s.epoch = time.Unix(0, ns)
		}
	} else {
		db.Put(keyMetaEpoch, codec.MustEncode(s.epoch.UnixNano()))
	}
	s.eventsOn.Store(true)
	return s
}

// DB exposes the underlying kv database for throughput benchmarks (E7) and
// snapshotting.
func (s *Store) DB() kv.DB { return s.db }

// SetEventLogging toggles the event log (used by the overhead bench, E13).
func (s *Store) SetEventLogging(on bool) { s.eventsOn.Store(on) }

// NowNs implements API.
func (s *Store) NowNs() int64 { return time.Since(s.epoch).Nanoseconds() }

// ResetAfterRecovery completes a control-plane restore: the previous
// incarnation's nodes are gone, so every node is marked dead and all object
// locations they held are dropped. Sole copies transition to LOST, making
// them eligible for lineage replay as soon as new nodes join — the recovery
// sequence Section 3.2.1 sketches.
func (s *Store) ResetAfterRecovery() {
	dead := make(map[types.NodeID]bool)
	for _, n := range s.Nodes() {
		dead[n.ID] = true
		s.MarkNodeDead(n.ID)
	}
	for _, o := range s.Objects() {
		for _, loc := range o.Locations {
			if dead[loc] {
				s.RemoveObjectLocation(o.ID, loc)
			}
		}
	}
}

// RebuildIndexes reconciles the durable marker indexes (PENDING tasks,
// GC-eligible objects) with the records they index. Record and marker are
// separate WAL writes, so a crash — or a WAL tail torn mid-append — can
// strand either side; a recovering shard service runs this once at boot
// (recovery already walks the whole state, so the full scan is free in
// complexity terms) and every later sweep can trust the markers.
func (s *Store) RebuildIndexes() {
	for _, k := range s.db.Keys(keyTask) {
		raw, ok := s.db.Get(k)
		if !ok {
			continue
		}
		st, err := codec.DecodeAs[types.TaskState](raw)
		if err != nil {
			continue
		}
		marker := keyPendIdx + st.Spec.ID.Hex()
		if st.Status == types.TaskPending {
			s.db.Put(marker, nil)
		} else if _, stale := s.db.Get(marker); stale {
			s.db.Delete(marker)
		}
	}
	for _, k := range s.db.Keys(keyObject) {
		raw, ok := s.db.Get(k)
		if !ok {
			continue
		}
		info, err := codec.DecodeAs[types.ObjectInfo](raw)
		if err != nil {
			continue
		}
		marker := keyGCIdx + info.ID.Hex()
		eligible := info.EverRetained && info.RefCount == 0 && len(info.Locations) > 0
		if eligible {
			s.db.Put(marker, nil)
		} else if _, stale := s.db.Get(marker); stale {
			s.db.Delete(marker)
		}
	}
}

// --- task table ---

// AddTask implements API: exactly-once insertion keyed by task ID.
func (s *Store) AddTask(state types.TaskState) bool {
	state.SubmittedNs = s.NowNs()
	state.LastTransitionNs = state.SubmittedNs
	ok := s.db.PutIfAbsent(keyTask+state.Spec.ID.Hex(), codec.MustEncode(state))
	if ok {
		if state.Status == types.TaskPending {
			s.db.Put(keyPendIdx+state.Spec.ID.Hex(), nil)
		}
		s.logEvent(types.Event{Kind: "submit", Task: state.Spec.ID, Node: state.Node})
	} else {
		// Duplicate insert — often a client retry after a crash suppressed
		// the original ack. The record write and the marker write are
		// separate WAL records, so a crash between them can leave a
		// durable PENDING record with no marker; heal it here so the
		// rescue sweep can see the task.
		if raw, found := s.db.Get(keyTask + state.Spec.ID.Hex()); found {
			if st, err := codec.DecodeAs[types.TaskState](raw); err == nil && st.Status == types.TaskPending {
				s.db.Put(keyPendIdx+state.Spec.ID.Hex(), nil)
			}
		}
	}
	return ok
}

// GetTask implements API.
func (s *Store) GetTask(id types.TaskID) (types.TaskState, bool) {
	raw, ok := s.db.Get(keyTask + id.Hex())
	if !ok {
		return types.TaskState{}, false
	}
	st, err := codec.DecodeAs[types.TaskState](raw)
	if err != nil {
		return types.TaskState{}, false
	}
	return st, true
}

// syncPendingIndex maintains the durable PENDING marker set on status
// transitions (only when the PENDING-ness actually flips, so the common
// QUEUED→SCHEDULED→RUNNING→FINISHED ladder costs nothing extra).
func (s *Store) syncPendingIndex(id types.TaskID, wasPending bool, status types.TaskStatus) {
	isPending := status == types.TaskPending
	switch {
	case isPending && !wasPending:
		s.db.Put(keyPendIdx+id.Hex(), nil)
	case !isPending && wasPending:
		s.db.Delete(keyPendIdx + id.Hex())
	}
}

// CASTaskStatus implements API: an atomic conditional status transition.
func (s *Store) CASTaskStatus(id types.TaskID, from []types.TaskStatus, to types.TaskStatus) bool {
	return s.CASTaskStatusOp(id, from, to, 0)
}

// CASTaskStatusOp is CASTaskStatus with an idempotency token (0 = no
// dedup), mirroring ModifyObjectRefCountOp: a retried CAS whose original
// commit survived a shard crash is recognized by its token and reported
// won, so the claimant proceeds (enqueues the task) instead of treating
// its own earlier commit as a lost race.
func (s *Store) CASTaskStatusOp(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, op uint64) bool {
	now := s.NowNs()
	won := false
	dupWin := false
	wasPending := false
	s.db.Update(keyTask+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		st, err := codec.DecodeAs[types.TaskState](cur)
		if err != nil {
			return nil, false
		}
		if st.MutOps.Seen(op) {
			dupWin = true // this exact CAS already applied
			return nil, false
		}
		eligible := false
		for _, f := range from {
			if st.Status == f {
				eligible = true
				break
			}
		}
		if !eligible {
			return nil, false
		}
		st.MutOps.Record(op, refOpHistory)
		wasPending = st.Status == types.TaskPending
		st.Status = to
		if to == types.TaskPending {
			// Back into the unowned spill queue (spill-away, owner-death
			// transfer, replay steal): no ledger holds authority until the
			// next claim. Bumping OwnerSeq keeps the sequence monotonic
			// across ownership tenures, so a previous owner's straggler
			// delta can never apply past this fence.
			st.Owner = types.NodeID{}
			st.OwnerSeq++
		}
		st.LastTransitionNs = now
		switch to {
		case types.TaskScheduled:
			st.ScheduledNs = now
		case types.TaskRunning:
			st.StartedNs = now
		case types.TaskFinished, types.TaskFailed:
			st.FinishedNs = now
		}
		won = true
		return codec.MustEncode(st), true
	})
	if won {
		s.syncPendingIndex(id, wasPending, to)
		s.db.Publish(chanTaskStatus+id.Hex(), []byte{byte(to)})
		s.logEvent(types.Event{Kind: "cas:" + to.String(), Task: id})
	}
	return won || dupWin
}

// ClaimTask implements API: the ownership-transfer CAS. A successful
// transition additionally stamps `owner` as the record's Owner and Node and
// bumps OwnerSeq; the returned sequence is the base the new owner's ledger
// deltas must exceed.
func (s *Store) ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool) {
	return s.ClaimTaskOp(id, from, to, owner, 0)
}

// ClaimTaskOp is ClaimTask with an idempotency token (0 = no dedup): a
// claim retried across a shard crash is recognized by its token and
// reported won with the sequence its original commit stamped.
func (s *Store) ClaimTaskOp(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID, op uint64) (uint64, bool) {
	now := s.NowNs()
	won := false
	dupWin := false
	wasPending := false
	var seq uint64
	s.db.Update(keyTask+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		st, err := codec.DecodeAs[types.TaskState](cur)
		if err != nil {
			return nil, false
		}
		if st.MutOps.Seen(op) {
			dupWin = true
			seq = st.OwnerSeq // the sequence the original commit stamped
			return nil, false
		}
		eligible := false
		for _, f := range from {
			if st.Status == f {
				eligible = true
				break
			}
		}
		if !eligible {
			return nil, false
		}
		st.MutOps.Record(op, refOpHistory)
		wasPending = st.Status == types.TaskPending
		st.Status = to
		st.Owner = owner
		st.Node = owner
		st.OwnerSeq++
		seq = st.OwnerSeq
		st.LastTransitionNs = now
		switch to {
		case types.TaskScheduled:
			st.ScheduledNs = now
		case types.TaskRunning:
			st.StartedNs = now
		case types.TaskFinished, types.TaskFailed:
			st.FinishedNs = now
		}
		won = true
		return codec.MustEncode(st), true
	})
	if won {
		s.syncPendingIndex(id, wasPending, to)
		s.db.Publish(chanTaskStatus+id.Hex(), []byte{byte(to)})
		s.logEvent(types.Event{Kind: "claim:" + to.String(), Task: id, Node: owner})
	}
	return seq, won || dupWin
}

// ModifyTaskStates implements API: one owner's task-ledger flush. Each
// delta is the owner's full latest view of a task's mutable state, applied
// under the batch's idempotency token; per-record owner/seq guards consume
// (rather than fail) deltas whose authority has moved on. The in-process
// store is always fully reachable, so this never reports failures.
func (s *Store) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	for _, d := range deltas {
		s.applyTaskDelta(d, op)
	}
	return nil
}

// applyTaskDelta applies one ledger delta to the follower record. Mirrors
// applyLedgerDelta's crash discipline: a redelivered token skips the state
// write but redoes the crash-droppable side effects (pending-index heal and
// the status publish), since the original commit may have died before them.
func (s *Store) applyTaskDelta(d types.TaskStateDelta, op uint64) {
	applied := false
	dup := false
	wasPending := false
	status := d.Status
	s.db.Update(keyTask+d.ID.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false // no AddTask record: nothing to follow
		}
		st, err := codec.DecodeAs[types.TaskState](cur)
		if err != nil {
			return nil, false
		}
		if st.MutOps.Seen(op) {
			dup = true
			status = st.Status
			return nil, false
		}
		if st.Owner != d.Owner || d.Seq <= st.OwnerSeq {
			// Authority moved on (spill-away, owner-death transfer, a newer
			// claim) or this is an out-of-order straggler: the delta is
			// consumed, never failed — the sender's ledger no longer speaks
			// for this record.
			return nil, false
		}
		if st.Status.Terminal() && d.Status != st.Status {
			// A terminal bury (FailTask) wins over a late owner flush:
			// terminal states are left only through a CAS or a claim.
			return nil, false
		}
		st.MutOps.Record(op, refOpHistory)
		wasPending = st.Status == types.TaskPending
		st.Status = d.Status
		st.OwnerSeq = d.Seq
		if !d.Node.IsNil() {
			st.Node = d.Node
		}
		if !d.Worker.IsNil() {
			st.Worker = d.Worker
		}
		if d.Error != "" {
			st.Error = d.Error
		}
		if d.Retries > st.Retries {
			st.Retries = d.Retries
		}
		// The owner stamps transition times on its cluster clock; take them
		// as given so profiling timelines reflect when transitions actually
		// happened, not when the flush landed.
		if d.ScheduledNs > 0 {
			st.ScheduledNs = d.ScheduledNs
		}
		if d.StartedNs > 0 {
			st.StartedNs = d.StartedNs
		}
		if d.FinishedNs > 0 {
			st.FinishedNs = d.FinishedNs
		}
		if d.LastTransitionNs > 0 {
			st.LastTransitionNs = d.LastTransitionNs
		}
		applied = true
		return codec.MustEncode(st), true
	})
	if applied {
		s.syncPendingIndex(d.ID, wasPending, d.Status)
		s.db.Publish(chanTaskStatus+d.ID.Hex(), []byte{byte(d.Status)})
		s.logEvent(types.Event{Kind: "status:" + d.Status.String(), Task: d.ID, Node: d.Node, Worker: d.Worker, Detail: d.Error})
	} else if dup {
		// Redelivery after a crash between commit and side effects: heal the
		// index and refire the (ephemeral) status publish.
		if raw, ok := s.db.Get(keyTask + d.ID.Hex()); ok {
			if st, err := codec.DecodeAs[types.TaskState](raw); err == nil {
				s.syncPendingIndex(d.ID, st.Status != types.TaskPending, st.Status)
			}
		}
		s.db.Publish(chanTaskStatus+d.ID.Hex(), []byte{byte(status)})
	}
}

// LiveTasksOwnedBy implements API: the owner-death transfer's source of
// truth. Scans the follower table for non-terminal records whose ledger
// authority is `owner`; the in-process store always has a complete view.
func (s *Store) LiveTasksOwnedBy(owner types.NodeID) ([]types.TaskState, bool) {
	var out []types.TaskState
	for _, k := range s.db.Keys(keyTask) {
		raw, ok := s.db.Get(k)
		if !ok {
			continue
		}
		st, err := codec.DecodeAs[types.TaskState](raw)
		if err != nil {
			continue
		}
		if st.Owner == owner && !st.Status.Terminal() {
			out = append(out, st)
		}
	}
	return out, true
}

// Tasks implements API (inspection scan, R7).
func (s *Store) Tasks() []types.TaskState {
	keys := s.db.Keys(keyTask)
	out := make([]types.TaskState, 0, len(keys))
	for _, k := range keys {
		if raw, ok := s.db.Get(k); ok {
			if st, err := codec.DecodeAs[types.TaskState](raw); err == nil {
				out = append(out, st)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubmittedNs < out[j].SubmittedNs })
	return out
}

// SubscribeTaskStatus implements API.
func (s *Store) SubscribeTaskStatus(id types.TaskID) Sub {
	return s.db.Subscribe(chanTaskStatus + id.Hex())
}

// StalePendingTasks implements API: the server-side filter behind the
// global scheduler's rescue sweep. It walks the durable PENDING marker
// index — O(currently-pending), not O(task history) — and measures
// staleness from the latest recorded transition on this store's own
// clock, so the sweep never pays for (or trips over) cross-client clock
// skew, and only the handful of stale specs crosses the wire. Markers
// whose task is no longer PENDING (possible only if a crash split the
// record write from the marker write) are healed lazily.
func (s *Store) StalePendingTasks(olderThanNs int64) []types.TaskSpec {
	now := s.NowNs()
	var out []types.TaskSpec
	for _, k := range s.db.Keys(keyPendIdx) {
		hex := k[len(keyPendIdx):]
		raw, ok := s.db.Get(keyTask + hex)
		if !ok {
			s.db.Delete(k)
			continue
		}
		st, err := codec.DecodeAs[types.TaskState](raw)
		if err != nil {
			continue
		}
		if st.Status != types.TaskPending {
			s.db.Delete(k) // stale marker: heal the index
			continue
		}
		last := st.SubmittedNs
		if st.LastTransitionNs > last {
			last = st.LastTransitionNs
		}
		if last == 0 || now-last < olderThanNs {
			continue
		}
		out = append(out, st.Spec)
	}
	return out
}

// --- object table ---

// EnsureObject implements API. Since lineage edges flush asynchronously
// from the owner's task ledger (DESIGN.md §13), an executing node's
// AddObjectLocation can now create the record before the producer edge
// arrives — so a late ensure heals a missing Producer instead of being a
// pure put-if-absent, keeping the object reconstructable.
func (s *Store) EnsureObject(id types.ObjectID, producer types.TaskID) {
	s.db.Update(keyObject+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			info := types.ObjectInfo{ID: id, Producer: producer, State: types.ObjectPending}
			return codec.MustEncode(info), true
		}
		info, err := codec.DecodeAs[types.ObjectInfo](cur)
		if err != nil || !info.Producer.IsNil() || producer.IsNil() {
			return nil, false
		}
		info.Producer = producer
		return codec.MustEncode(info), true
	})
}

// EnsureObjects implements API: the task ledger's batched lineage flush.
// The in-process store is always fully reachable, so this never reports
// failures.
func (s *Store) EnsureObjects(producers map[types.ObjectID]types.TaskID) []types.ObjectID {
	for id, producer := range producers {
		s.EnsureObject(id, producer)
	}
	return nil
}

// AddObjectLocation implements API. The first location moves the object to
// Ready and fires its ready channel, which is what unblocks dataflow
// dispatch in every local scheduler waiting on it.
func (s *Store) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	garbage := false
	s.db.Update(keyObject+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		var info types.ObjectInfo
		if exists {
			var err error
			info, err = codec.DecodeAs[types.ObjectInfo](cur)
			if err != nil {
				return nil, false
			}
		} else {
			info = types.ObjectInfo{ID: id}
		}
		if !info.HasLocation(node) {
			info.Locations = append(info.Locations, node)
		}
		info.Size = size
		info.State = types.ObjectReady
		garbage = info.EverRetained && info.RefCount == 0
		return codec.MustEncode(info), true
	})
	s.db.Publish(chanObjReady+id.Hex(), id[:])
	if garbage {
		// The object's references came and went before its bytes arrived —
		// possible since batched ledger flushes can deliver a retain+release
		// "touch" while the producer is still running. Nobody else will ever
		// publish this object on the GC channel, so the produce does, or the
		// copy would be stranded forever.
		s.db.Put(keyGCIdx+id.Hex(), nil)
		s.db.Publish(chanObjGC, id[:])
	}
	s.logEvent(types.Event{Kind: "object-ready", Object: id, Node: node})
}

// RemoveObjectLocation implements API. Dropping the last live copy of a
// ready object marks it Lost — the trigger for lineage reconstruction (R6).
func (s *Store) RemoveObjectLocation(id types.ObjectID, node types.NodeID) {
	lost := false
	drained := false
	s.db.Update(keyObject+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.ObjectInfo](cur)
		if err != nil {
			return nil, false
		}
		locs := info.Locations[:0]
		for _, n := range info.Locations {
			if n != node {
				locs = append(locs, n)
			}
		}
		info.Locations = locs
		if info.IsSpilledOn(node) {
			disk := info.SpilledOn[:0]
			for _, n := range info.SpilledOn {
				if n != node {
					disk = append(disk, n)
				}
			}
			info.SpilledOn = disk
		}
		if len(locs) == 0 && info.State == types.ObjectReady {
			info.State = types.ObjectLost
			lost = true
		}
		drained = len(locs) == 0 && info.RefCount == 0 && info.EverRetained
		return codec.MustEncode(info), true
	})
	if drained {
		// Every copy is gone and nobody holds a reference: collection is
		// complete, so the GC-eligible marker (and its replay) retires.
		s.db.Delete(keyGCIdx + id.Hex())
	}
	if lost {
		s.logEvent(types.Event{Kind: "object-lost", Object: id, Node: node})
	}
}

// ModifyObjectRefCount implements API. The count never goes below zero (a
// raced double-release clamps), and only a positive-to-zero transition
// publishes on the GC channel — objects nobody ever retained stay at zero
// without ever becoming GC-eligible, preserving pre-lifetime behaviour.
func (s *Store) ModifyObjectRefCount(id types.ObjectID, delta int64) int64 {
	return s.ModifyObjectRefCountOp(id, delta, 0)
}

// refOpHistory bounds every record's OpRing. A retry's token must survive in
// the ring for the full retry window (seconds) even while other clients'
// queued deltas land on the same hot object after a shard restart — e.g.
// a widely-shared dependency borrowed by dozens of queued tasks — so the
// ring is sized well past any realistic burst of concurrent mutators
// (512 B worst case per high-churn record).
const refOpHistory = 64

// ModifyObjectRefCountOp is ModifyObjectRefCount with an idempotency
// token. A non-zero op already present in the record's RefOps ring means
// this exact mutation was applied and its response lost (typically to a
// shard crash between commit and reply); the retry returns the current
// count without re-applying the delta. op 0 disables dedup (in-process
// and non-retrying callers).
func (s *Store) ModifyObjectRefCountOp(id types.ObjectID, delta int64, op uint64) int64 {
	var after int64
	gc := false
	wasEligible := false
	s.db.Update(keyObject+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		var info types.ObjectInfo
		if exists {
			var err error
			info, err = codec.DecodeAs[types.ObjectInfo](cur)
			if err != nil {
				return nil, false
			}
		} else {
			info = types.ObjectInfo{ID: id}
		}
		if info.RefOps.Seen(op) {
			after = info.RefCount // duplicate delivery: no re-apply
			// The original commit may have died before its marker
			// write and GC publish; redo those side effects if the
			// record is still eligible AND undrained (a drained
			// object's marker already retired for good — don't
			// resurrect it).
			gc = info.EverRetained && info.RefCount == 0 && len(info.Locations) > 0
			return nil, false
		}
		info.RefOps.Record(op, refOpHistory)
		before := info.RefCount
		wasEligible = info.EverRetained && before == 0
		info.RefCount += delta
		if info.RefCount < 0 {
			info.RefCount = 0
		}
		if info.RefCount > 0 {
			info.EverRetained = true
		}
		after = info.RefCount
		gc = before > 0 && after == 0
		return codec.MustEncode(info), true
	})
	// Maintain the durable GC-eligible index on transitions only (the
	// common increment/decrement traffic above zero touches no marker).
	if gc {
		s.db.Put(keyGCIdx+id.Hex(), nil)
		s.db.Publish(chanObjGC, id[:])
		s.logEvent(types.Event{Kind: "object-gc-eligible", Object: id})
	} else if wasEligible && after > 0 {
		s.db.Delete(keyGCIdx + id.Hex()) // re-retained from zero
	}
	return after
}

// ModifyObjectRefCounts implements API: one node's ledger flush, applied
// as independent per-object mutations sharing the batch's idempotency
// token (DESIGN.md §12). The token is recorded in each object's RefOps
// ring individually, so a crash that commits part of a batch before the
// ack is lost is repaired exactly by redelivery: already-committed objects
// dedup on the token, the rest apply. A zero delta is a "touch" — the
// object was retained and fully released within one flush interval — and
// carries the retain's semantic obligations (EverRetained, and a GC
// publish if the count sits at zero) without moving the count. The
// in-process store cannot fail partially, so the failed set is always nil.
func (s *Store) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	for id, delta := range deltas {
		s.applyLedgerDelta(node, id, delta, op)
	}
	return nil
}

// applyLedgerDelta is one object's share of a ledger flush: the tokened,
// holder-attributed generalization of ModifyObjectRefCountOp.
func (s *Store) applyLedgerDelta(node types.NodeID, id types.ObjectID, delta int64, op uint64) {
	gc := false
	wasEligible := false
	after := int64(0)
	s.db.Update(keyObject+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		var info types.ObjectInfo
		if exists {
			var err error
			info, err = codec.DecodeAs[types.ObjectInfo](cur)
			if err != nil {
				return nil, false
			}
		} else {
			info = types.ObjectInfo{ID: id}
		}
		if info.RefOps.Seen(op) {
			// Duplicate delivery of this batch for this object: the
			// count already moved. Redo only the crash-droppable side
			// effects (marker + GC publish), as the single-ID path does.
			gc = info.EverRetained && info.RefCount == 0 && len(info.Locations) > 0
			after = info.RefCount
			return nil, false
		}
		info.RefOps.Record(op, refOpHistory)
		before := info.RefCount
		wasEligible = info.EverRetained && before == 0
		info.RefCount += delta
		if info.RefCount < 0 {
			info.RefCount = 0
		}
		if delta >= 0 {
			// A positive delta means live references exist; a zero delta is a
			// touch. Either way the object has now been retained at least once.
			info.EverRetained = true
		}
		if !node.IsNil() && delta != 0 {
			h := int64(0)
			if info.Holders != nil {
				h = info.Holders[node]
			}
			h += delta
			switch {
			case h > 0:
				if info.Holders == nil {
					info.Holders = make(map[types.NodeID]int64, 1)
				}
				info.Holders[node] = h
			case info.Holders != nil:
				delete(info.Holders, node)
			}
		}
		after = info.RefCount
		gc = !wasEligible && info.EverRetained && after == 0
		return codec.MustEncode(info), true
	})
	if gc {
		s.db.Put(keyGCIdx+id.Hex(), nil)
		s.db.Publish(chanObjGC, id[:])
		s.logEvent(types.Event{Kind: "object-gc-eligible", Object: id})
	} else if wasEligible && after > 0 {
		s.db.Delete(keyGCIdx + id.Hex()) // re-retained from zero
	}
}

// SweepDeadNodeRefs implements API: drop every refcount share attributed
// to node, which died without flushing releases (DESIGN.md §12). Counts a
// dead node's ledger would eventually have released are subtracted in one
// pass; objects thereby reaching zero become GC-eligible exactly as if the
// releases had flushed. The sweep is idempotent — a node's attribution is
// deleted as it is swept, so concurrent or repeated sweeps (every global
// scheduler runs one per death it observes) find nothing the second time.
// Reports how many objects were adjusted.
func (s *Store) SweepDeadNodeRefs(node types.NodeID) int {
	if node.IsNil() {
		return 0
	}
	swept := 0
	for _, k := range s.db.Keys(keyObject) {
		id, err := types.ParseObjectID(k[len(keyObject):])
		if err != nil {
			continue
		}
		gc := false
		adjusted := false
		s.db.Update(k, func(cur []byte, exists bool) ([]byte, bool) {
			if !exists {
				return nil, false
			}
			info, err := codec.DecodeAs[types.ObjectInfo](cur)
			if err != nil {
				return nil, false
			}
			held := info.Holders[node]
			if held <= 0 {
				return nil, false
			}
			delete(info.Holders, node)
			before := info.RefCount
			info.RefCount -= held
			if info.RefCount < 0 {
				info.RefCount = 0
			}
			adjusted = true
			gc = before > 0 && info.RefCount == 0
			return codec.MustEncode(info), true
		})
		if adjusted {
			swept++
		}
		if gc {
			s.db.Put(keyGCIdx+id.Hex(), nil)
			s.db.Publish(chanObjGC, id[:])
			s.logEvent(types.Event{Kind: "owner-death-sweep", Object: id, Node: node})
		}
	}
	return swept
}

// MarkObjectSpilled implements API. The spilled bit qualifies a registered
// location: object stores publish spill/restore transitions asynchronously
// (outside their data-plane lock), so a mark can arrive after the location
// it describes was already removed — dropping it here keeps a raced delete
// from resurrecting a phantom disk copy.
func (s *Store) MarkObjectSpilled(id types.ObjectID, node types.NodeID, spilled bool) {
	s.db.Update(keyObject+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.ObjectInfo](cur)
		if err != nil {
			return nil, false
		}
		if spilled && !info.HasLocation(node) {
			return nil, false // location already removed; stale async mark
		}
		onDisk := info.IsSpilledOn(node)
		switch {
		case spilled && !onDisk:
			info.SpilledOn = append(info.SpilledOn, node)
		case !spilled && onDisk:
			kept := info.SpilledOn[:0]
			for _, n := range info.SpilledOn {
				if n != node {
					kept = append(kept, n)
				}
			}
			info.SpilledOn = kept
		default:
			return nil, false // no change; skip the write
		}
		return codec.MustEncode(info), true
	})
}

// SubscribeObjectGC implements API.
func (s *Store) SubscribeObjectGC() Sub { return s.db.Subscribe(chanObjGC) }

// GCEligibleObjects returns objects whose refcount fell to zero after
// having been retained and whose copies are not yet fully drained —
// exactly the set whose GC publish a subscriber may have missed. A
// recovered shard service replays these to every GC-channel subscriber at
// (re)subscribe time, so a notification dropped by a crash only delays
// reclamation until the next subscription instead of leaking the object
// forever. The walk is over the durable marker index (retired when the
// last copy drains), so replay cost tracks outstanding garbage, not the
// cluster's full object history; reclaim is idempotent, so the inherent
// duplicates are harmless. Markers out of sync with their record (a crash
// between the two writes) are healed lazily.
func (s *Store) GCEligibleObjects() []types.ObjectID {
	var out []types.ObjectID
	for _, k := range s.db.Keys(keyGCIdx) {
		hex := k[len(keyGCIdx):]
		id, err := types.ParseObjectID(hex)
		if err != nil {
			s.db.Delete(k)
			continue
		}
		info, ok := s.GetObject(id)
		if !ok || !info.EverRetained || info.RefCount > 0 || len(info.Locations) == 0 {
			s.db.Delete(k) // stale or drained marker: heal the index
			continue
		}
		out = append(out, id)
	}
	return out
}

// Ping implements Pinger: the in-process store is always reachable.
func (s *Store) Ping() bool { return true }

// GetObject implements API.
func (s *Store) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	raw, ok := s.db.Get(keyObject + id.Hex())
	if !ok {
		return types.ObjectInfo{}, false
	}
	info, err := codec.DecodeAs[types.ObjectInfo](raw)
	if err != nil {
		return types.ObjectInfo{}, false
	}
	return info, true
}

// Objects implements API (inspection scan, R7).
func (s *Store) Objects() []types.ObjectInfo {
	keys := s.db.Keys(keyObject)
	out := make([]types.ObjectInfo, 0, len(keys))
	for _, k := range keys {
		if raw, ok := s.db.Get(k); ok {
			if info, err := codec.DecodeAs[types.ObjectInfo](raw); err == nil {
				out = append(out, info)
			}
		}
	}
	return out
}

// SubscribeObjectReady implements API.
func (s *Store) SubscribeObjectReady(id types.ObjectID) Sub {
	return s.db.Subscribe(chanObjReady + id.Hex())
}

// --- spillover ---

// PublishSpill implements API.
func (s *Store) PublishSpill(spec types.TaskSpec) {
	s.db.Publish(chanSpill, codec.MustEncode(spec))
	s.logEvent(types.Event{Kind: "spill", Task: spec.ID})
}

// SubscribeSpill implements API.
func (s *Store) SubscribeSpill() Sub { return s.db.Subscribe(chanSpill) }

// --- node table ---

// RegisterNode implements API.
func (s *Store) RegisterNode(info types.NodeInfo) {
	info.Alive = true
	info.LastSeen = s.NowNs()
	s.db.Put(keyNode+info.ID.Hex(), codec.MustEncode(info))
	s.db.Publish(chanNodes, codec.MustEncode(info))
	s.logEvent(types.Event{Kind: "node-join", Node: info.ID})
}

// unloggedUpdater is optionally implemented by the kv layer (kv.Logger)
// to apply an update without writing it to the WAL. Heartbeats use it:
// liveness stamps are the highest-churn mutation in the system and purely
// ephemeral — a recovered shard repopulates them from the next heartbeat
// within one interval — so logging them would grow the WAL without bound
// for zero recovery value.
type unloggedUpdater interface {
	UpdateUnlogged(key string, fn func(cur []byte, exists bool) ([]byte, bool)) bool
}

// Heartbeat implements API. Load snapshots feed the global scheduler's
// placement policy. The stamp bypasses the WAL (see unloggedUpdater).
func (s *Store) Heartbeat(id types.NodeID, queueLen int, avail types.Resources, store types.StoreStats) {
	now := s.NowNs()
	update := s.db.Update
	if u, ok := s.db.(unloggedUpdater); ok {
		update = u.UpdateUnlogged
	}
	update(keyNode+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.NodeInfo](cur)
		if err != nil {
			return nil, false
		}
		info.LastSeen = now
		info.QueueLen = queueLen
		info.Available = avail
		info.Store = store
		info.Alive = true
		return codec.MustEncode(info), true
	})
}

// MarkNodeDead implements API.
func (s *Store) MarkNodeDead(id types.NodeID) {
	var dead types.NodeInfo
	found := false
	s.db.Update(keyNode+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.NodeInfo](cur)
		if err != nil {
			return nil, false
		}
		info.Alive = false
		dead, found = info, true
		return codec.MustEncode(info), true
	})
	if found {
		s.db.Publish(chanNodes, codec.MustEncode(dead))
		s.logEvent(types.Event{Kind: "node-dead", Node: id})
	}
}

// CASNodeState implements API.
func (s *Store) CASNodeState(id types.NodeID, from []types.NodeState, to types.NodeState) bool {
	return s.CASNodeStateOp(id, from, to, 0)
}

// CASNodeStateOp is CASNodeState with an idempotency token (0 = no dedup),
// mirroring CASTaskStatusOp: a drain CAS retried across a control-plane
// shard crash is recognized by its token in the record's durable MutOps
// ring and reported won, so the autoscaler (or draining node) proceeds
// instead of treating its own earlier commit as a lost race.
func (s *Store) CASNodeStateOp(id types.NodeID, from []types.NodeState, to types.NodeState, op uint64) bool {
	now := s.NowNs()
	won := false
	dupWin := false
	var next types.NodeInfo
	s.db.Update(keyNode+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.NodeInfo](cur)
		if err != nil {
			return nil, false
		}
		if info.MutOps.Seen(op) {
			dupWin = true // this exact CAS already applied
			return nil, false
		}
		eligible := false
		for _, f := range from {
			if info.State == f {
				eligible = true
				break
			}
		}
		if !eligible {
			return nil, false
		}
		info.MutOps.Record(op, refOpHistory)
		info.State = to
		switch to {
		case types.NodeDraining:
			info.DrainNs = now
		case types.NodeActive:
			info.DrainNs = 0 // rollback: the drain never happened
		}
		won = true
		next = info
		return codec.MustEncode(info), true
	})
	if won {
		s.db.Publish(chanNodes, codec.MustEncode(next))
		s.logEvent(types.Event{Kind: "node-state:" + to.String(), Node: id})
	}
	return won || dupWin
}

// GetNode implements API.
func (s *Store) GetNode(id types.NodeID) (types.NodeInfo, bool) {
	raw, ok := s.db.Get(keyNode + id.Hex())
	if !ok {
		return types.NodeInfo{}, false
	}
	info, err := codec.DecodeAs[types.NodeInfo](raw)
	if err != nil {
		return types.NodeInfo{}, false
	}
	return info, true
}

// Nodes implements API.
func (s *Store) Nodes() []types.NodeInfo {
	keys := s.db.Keys(keyNode)
	out := make([]types.NodeInfo, 0, len(keys))
	for _, k := range keys {
		if raw, ok := s.db.Get(k); ok {
			if info, err := codec.DecodeAs[types.NodeInfo](raw); err == nil {
				out = append(out, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Hex() < out[j].ID.Hex() })
	return out
}

// SubscribeNodeEvents implements API.
func (s *Store) SubscribeNodeEvents() Sub { return s.db.Subscribe(chanNodes) }

// --- function table ---

// RegisterFunction implements API.
func (s *Store) RegisterFunction(info FunctionInfo) {
	s.db.Put(keyFunc+info.Name, codec.MustEncode(info))
}

// HasFunction implements API.
func (s *Store) HasFunction(name string) bool {
	_, ok := s.db.Get(keyFunc + name)
	return ok
}

// Functions implements API.
func (s *Store) Functions() []FunctionInfo {
	keys := s.db.Keys(keyFunc)
	out := make([]FunctionInfo, 0, len(keys))
	for _, k := range keys {
		if raw, ok := s.db.Get(k); ok {
			if info, err := codec.DecodeAs[FunctionInfo](raw); err == nil {
				out = append(out, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- event log ---

func (s *Store) logEvent(ev types.Event) {
	if !s.eventsOn.Load() {
		return
	}
	ev.TimeNs = s.NowNs()
	s.db.Append(keyEvents+ev.Node.Hex(), codec.MustEncode(ev))
}

// LogEvent implements API (for components logging their own events).
func (s *Store) LogEvent(ev types.Event) { s.logEvent(ev) }

// Events implements API: the merged, time-ordered event log.
func (s *Store) Events() []types.Event {
	var out []types.Event
	for _, k := range s.db.ListKeys(keyEvents) {
		for _, raw := range s.db.List(k) {
			if ev, err := codec.DecodeAs[types.Event](raw); err == nil {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimeNs < out[j].TimeNs })
	return out
}

var _ API = (*Store)(nil)
