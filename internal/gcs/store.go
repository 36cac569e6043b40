package gcs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/kv"
	"repro/internal/types"
)

// Store is the control plane. It is the only stateful component in the
// system; everything else can crash and resubscribe. Every record — task,
// object, node, job, placement group — is a decoded record in a typed
// table (table.go). The kv store holds the event log and the clock epoch,
// is the pub/sub bus and, on a durable shard, the tables' journal.
type Store struct {
	db    kv.DB
	epoch time.Time
	// eventsOn gates event logging so its overhead can be measured (E13).
	eventsOn atomic.Bool
	// telemetry holds published node metrics and data-plane spans —
	// in-memory only, never WAL'd (see telemetry.go).
	telemetry telemetry

	tasks   *table[types.TaskID, types.TaskState]
	objects *table[types.ObjectID, types.ObjectInfo]
	nodes   *table[types.NodeID, types.NodeInfo]
	jobs    *table[types.JobID, types.JobInfo]
	groups  *table[types.PlacementGroupID, types.PlacementGroupInfo]
}

// NewStore creates an in-memory control plane with the given stripe count.
// Event logging starts enabled.
func NewStore(shards int) *Store {
	return RecoverStore(kv.New(shards))
}

// RecoverStore wraps an existing kv database — a bare in-memory store, one
// reconstituted from a snapshot plus write-ahead-log replay (kv.Restore,
// kv.Replay, kv.RecoverDir), or a WAL-teeing kv.Logger — as a control
// plane, filling the typed tables with one scan of it. This is the
// database-side half of the Section 3.2.1 fault-tolerance story: the
// control state survives a control-plane crash, and the stateless
// components simply reconnect and resubscribe.
//
// What db is decides durability, and nothing else does: over a kv.Logger
// every committed record is also written through it, so WAL, snapshot and
// checkpoint hold exactly what they always held; over a bare kv.Store the
// tables encode nothing.
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
		db.Put(keyMetaEpoch, codec.MustEncodeGob(s.epoch.UnixNano()))
	}
	s.eventsOn.Store(true)
	_, durable := db.(*kv.Logger)
	n := db.NumShards()
	s.tasks = newTable[types.TaskID](n, keyTask, keyPendIdx, taskPending, (*types.TaskState).Clone)
	s.objects = newTable[types.ObjectID](n, keyObject, keyGCIdx, gcEligible, (*types.ObjectInfo).Clone)
	s.nodes = newTable[types.NodeID](n, keyNode, "", nil, (*types.NodeInfo).Clone)
	s.jobs = newTable[types.JobID](n, keyJob, "", nil, (*types.JobInfo).Clone)
	s.groups = newTable[types.PlacementGroupID](n, keyGroup, "", nil, (*types.PlacementGroupInfo).Clone)
	s.tasks.load(db, durable)
	s.objects.load(db, durable)
	s.nodes.load(db, durable)
	s.jobs.load(db, durable)
	s.groups.load(db, durable)
	return s
}

// taskPending and gcEligible are the marker-index predicates: the tasks the
// rescue sweep walks, and the objects whose refcount drained to zero after
// having been retained while copies remain to collect.
func taskPending(st *types.TaskState) bool { return st.Status == types.TaskPending }

func gcEligible(o *types.ObjectInfo) bool {
	return o.EverRetained && o.RefCount == 0 && len(o.Locations) > 0
}

// Snapshot writes the whole control state in the kv snapshot format, so
// kv.Restore + RecoverStore reconstitute it. A durable store's journal
// already holds every record; an in-memory store encodes its tables beside
// a copy of the event log and the clock epoch.
func (s *Store) Snapshot(w io.Writer) error {
	if s.tasks.journal != nil {
		return s.db.Snapshot(w)
	}
	all := kv.New(s.db.NumShards())
	for _, k := range s.db.Keys("") {
		if v, ok := s.db.Get(k); ok {
			all.Put(k, v)
		}
	}
	for _, k := range s.db.ListKeys("") {
		for _, v := range s.db.List(k) {
			all.Append(k, v)
		}
	}
	s.tasks.dump(all.Put)
	s.objects.dump(all.Put)
	s.nodes.dump(all.Put)
	s.jobs.dump(all.Put)
	s.groups.dump(all.Put)
	return all.Snapshot(w)
}

// Ops returns the cumulative count of table and kv operations (monotonic;
// the dashboard's kv_ops, E7).
func (s *Store) Ops() int64 {
	return s.db.Ops() + s.tasks.ops.Load() + s.objects.ops.Load() + s.nodes.ops.Load() +
		s.jobs.ops.Load() + s.groups.ops.Load()
}

// SetEventLogging toggles the event log (used by the overhead bench, E13).
func (s *Store) SetEventLogging(on bool) { s.eventsOn.Store(on) }

// NowNs implements API.
func (s *Store) NowNs() int64 { return time.Since(s.epoch).Nanoseconds() }

// ResetAfterRecovery completes a control-plane restore: the previous
// incarnation's nodes are gone, so every node is marked dead and all object
// locations they held are dropped. Sole copies transition to LOST, making
// them eligible for lineage replay as soon as new nodes join — the recovery
// sequence Section 3.2.1 sketches.
func (s *Store) ResetAfterRecovery() { resetAfterRecovery(s) }

// resetAfterRecovery is ResetAfterRecovery over every shard's store. Node
// and object records live on different shards, so the dead-node set is
// gathered across all of them before any store's locations are scrubbed.
func resetAfterRecovery(stores ...*Store) {
	dead := make(map[types.NodeID]bool)
	for _, st := range stores {
		for _, n := range st.Nodes() {
			dead[n.ID] = true
			st.MarkNodeDead(n.ID)
		}
	}
	for _, st := range stores {
		for _, o := range st.Objects() {
			for _, loc := range o.Locations {
				if dead[loc] {
					st.RemoveObjectLocation(o.ID, loc)
				}
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
	s.tasks.reindex()
	s.objects.reindex()
}

// --- task table ---

// AddTask implements API: exactly-once insertion keyed by task ID. A
// duplicate — often a client retry after a crash suppressed the original
// ack — changes nothing, but like every touch re-derives the PENDING
// marker the crash may have cut off from its record.
func (s *Store) AddTask(state types.TaskState) bool {
	state.SubmittedNs = s.NowNs()
	state.LastTransitionNs = state.SubmittedNs
	added, _ := s.tasks.mutate(state.Spec.ID, upsert, func(st *types.TaskState, exists bool) bool {
		if !exists {
			*st = state.Clone()
		}
		return !exists
	})
	if added {
		s.logEvent(types.Event{Kind: "submit", Task: state.Spec.ID, Node: state.Node})
	}
	return added
}

// GetTask implements API.
func (s *Store) GetTask(id types.TaskID) (types.TaskState, bool) { return s.tasks.get(id) }

// publishStatus fires the task's status channel, if anyone listens.
func (s *Store) publishStatus(id types.TaskID, status types.TaskStatus, watched bool) {
	if watched {
		s.db.Publish(key(chanTaskStatus, id), []byte{byte(status)})
	}
}

// ClaimTask implements API: the status CAS, and with a non-nil owner the
// ownership-transfer CAS. A successful claim additionally stamps owner as
// the record's Owner and Node and bumps OwnerSeq; the returned sequence is
// the base the new owner's ledger deltas must exceed.
func (s *Store) ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool) {
	return s.ClaimTaskOp(id, from, to, owner, 0)
}

// ClaimTaskOp is ClaimTask with an idempotency token (0 = no dedup),
// mirroring a reference flush's: a CAS retried across a shard crash is
// recognized by its token and reported won with the sequence its original
// commit stamped, so the claimant proceeds (enqueues the task) instead of
// treating its own earlier commit as a lost race.
func (s *Store) ClaimTaskOp(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID, op uint64) (seq uint64, ok bool) {
	now := s.NowNs()
	dup := false
	won, watched := s.tasks.mutate(id, existing, func(st *types.TaskState, _ bool) bool {
		if st.MutOps.Seen(op) {
			dup, seq = true, st.OwnerSeq // this exact CAS already applied
			return false
		}
		if !slices.Contains(from, st.Status) {
			return false
		}
		st.MutOps.Record(op, refOpHistory)
		st.Status = to
		switch {
		case !owner.IsNil():
			st.Owner, st.Node = owner, owner
			st.OwnerSeq++
		case to == types.TaskPending:
			// Back into the unowned spill queue (spill-away, owner-death
			// transfer, replay steal): no ledger holds authority until the
			// next claim. Bumping OwnerSeq keeps the sequence monotonic
			// across ownership tenures, so a previous owner's straggler
			// delta can never apply past this fence.
			st.Owner = types.NodeID{}
			st.OwnerSeq++
		}
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
		return true
	})
	if won {
		s.publishStatus(id, to, watched)
		if owner.IsNil() {
			s.logKind("cas:", to, types.Event{Task: id})
		} else {
			s.logKind("claim:", to, types.Event{Task: id, Node: owner})
		}
	}
	return seq, won || dup
}

// ModifyTaskStates implements API: one owner's task-ledger flush. Each
// delta is the owner's full latest view of a task's mutable state, applied
// under the batch's idempotency token; per-record owner/seq guards consume
// (rather than fail) deltas whose authority has moved on. Births insert
// their records, and every birth's return objects get their producer edge.
// The in-process store is always fully reachable, so what it reports is
// only the births that found a record already there.
func (s *Store) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	refused := s.modifyTaskStates(deltas, op)
	for i := range deltas {
		if spec := deltas[i].Spec; spec != nil {
			for r := 0; r < spec.NumReturns; r++ {
				s.EnsureObject(spec.ReturnID(r), spec.ID)
			}
		}
	}
	return refused
}

// modifyTaskStates is ModifyTaskStates on this store's task table alone —
// the producer edges of the births are the caller's, since in a sharded
// control plane the return objects' records live on other shards. It
// returns the births that found a record already there.
func (s *Store) modifyTaskStates(deltas []types.TaskStateDelta, op uint64) (refused []types.TaskID) {
	for i := range deltas {
		if deltas[i].Spec == nil {
			s.applyTaskDelta(&deltas[i], op)
		} else if !s.applyBirth(&deltas[i], op) {
			refused = append(refused, deltas[i].ID)
		}
	}
	return refused
}

// applyBirth inserts a birth's record unless the table holds one. A birth
// redelivered under its token finds its own record and counts as applied;
// like every touch, any duplicate re-derives the PENDING marker.
func (s *Store) applyBirth(d *types.TaskStateDelta, op uint64) bool {
	at := d.SubmittedNs
	if at <= 0 {
		at = s.NowNs()
	}
	own := false
	added, _ := s.tasks.mutate(d.ID, upsert, func(st *types.TaskState, exists bool) bool {
		if exists {
			own = st.MutOps.Seen(op)
			return false
		}
		*st = types.TaskState{
			Spec: d.Spec.Clone(), Status: d.Status, Node: d.Node,
			SubmittedNs: at, LastTransitionNs: at, Owner: d.Owner, OwnerSeq: d.Seq,
		}
		st.MutOps.Record(op, refOpHistory)
		return true
	})
	if added {
		s.logEvent(types.Event{Kind: "submit", Task: d.ID, Node: d.Node})
	}
	return added || own
}

// applyTaskDelta applies one ledger delta to the follower record. Mirrors
// applyRefDelta's crash discipline: a redelivered token skips the state
// write but redoes the crash-droppable side effects (the marker, which any
// touch re-derives, and the status publish), since the original commit may
// have died before them.
func (s *Store) applyTaskDelta(d *types.TaskStateDelta, op uint64) {
	dup := false
	status := d.Status
	applied, watched := s.tasks.mutate(d.ID, existing, func(st *types.TaskState, _ bool) bool {
		if st.MutOps.Seen(op) {
			dup, status = true, st.Status
			return false
		}
		if st.Owner != d.Owner || d.Seq <= st.OwnerSeq {
			// Authority moved on (spill-away, owner-death transfer, a newer
			// claim) or this is an out-of-order straggler: the delta is
			// consumed, never failed — the sender's ledger no longer speaks
			// for this record.
			return false
		}
		if st.Status.Terminal() && d.Status != st.Status {
			// A terminal bury (FailTask) wins over a late owner flush:
			// terminal states are left only through a CAS or a claim.
			return false
		}
		st.MutOps.Record(op, refOpHistory)
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
		st.Retries = max(st.Retries, d.Retries)
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
		return true
	})
	if applied || dup {
		s.publishStatus(d.ID, status, watched)
	}
	if applied {
		s.logKind("status:", d.Status, types.Event{Task: d.ID, Node: d.Node, Worker: d.Worker, Detail: d.Error})
	}
}

// ScanTasks implements API: the in-process store always has a complete
// view.
func (s *Store) ScanTasks(f TaskFilter) ([]types.TaskState, bool) {
	out := s.tasks.collect(f.match)
	sortBySubmit(out)
	return out, true
}

// Tasks is ScanTasks of the whole table, for in-process inspection.
func (s *Store) Tasks() []types.TaskState {
	out, _ := s.ScanTasks(TaskFilter{})
	return out
}

func sortBySubmit(tasks []types.TaskState) {
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].SubmittedNs < tasks[j].SubmittedNs })
}

// StalePendingTasks implements API: the server-side filter behind the
// global scheduler's rescue sweep. It walks the durable PENDING marker
// index — O(currently-pending), not O(task history) — and measures
// staleness from the latest recorded transition on this store's own
// clock, so the sweep never pays for (or trips over) cross-client clock
// skew, and only the handful of stale specs crosses the wire.
func (s *Store) StalePendingTasks(olderThanNs int64) []types.TaskSpec {
	now := s.NowNs()
	var out []types.TaskSpec
	for _, id := range s.tasks.markedIDs() {
		st, ok := s.tasks.get(id)
		if !ok || st.Status != types.TaskPending {
			continue // claimed since the index was read
		}
		last := max(st.SubmittedNs, st.LastTransitionNs)
		if last == 0 || now-last < olderThanNs {
			continue
		}
		out = append(out, st.Spec)
	}
	return out
}

// --- object table ---

// EnsureObject is one record's step of EnsureObjects. Since lineage edges
// flush asynchronously from the owner's task ledger (DESIGN.md §13), an
// executing node's AddObjectLocation can create the record before the
// producer edge arrives — so a late ensure heals a missing Producer instead
// of being a pure put-if-absent, keeping the object reconstructable.
func (s *Store) EnsureObject(id types.ObjectID, producer types.TaskID) {
	s.objects.mutate(id, upsert, func(info *types.ObjectInfo, exists bool) bool {
		if !exists {
			*info = types.ObjectInfo{ID: id, Producer: producer, State: types.ObjectPending}
			return true
		}
		if !info.Producer.IsNil() || producer.IsNil() {
			return false
		}
		info.Producer = producer
		return true
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

// publishGC announces that id's refcount drained to zero. The payload is
// all a subscriber gets, and the event is crash-droppable: the gcidx marker
// the same commit derived is what a recovered shard replays from.
func (s *Store) publishGC(id types.ObjectID, kind string, node types.NodeID) {
	s.db.Publish(chanObjGC, id[:])
	s.logEvent(types.Event{Kind: kind, Object: id, Node: node})
}

// AddObjectLocation implements API. The first location moves the object to
// Ready and fires its ready channel, which is what unblocks dataflow
// dispatch in every local scheduler waiting on it.
func (s *Store) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	garbage := false
	_, watched := s.objects.mutate(id, upsert, func(info *types.ObjectInfo, _ bool) bool {
		info.ID = id
		if !info.HasLocation(node) {
			info.Locations = append(info.Locations, node)
		}
		info.Size = size
		info.State = types.ObjectReady
		garbage = info.EverRetained && info.RefCount == 0
		return true
	})
	if watched {
		s.db.Publish(key(chanObjReady, id), id[:])
	}
	if garbage {
		// The object's references came and went before its bytes arrived —
		// possible since batched ledger flushes can deliver a retain+release
		// "touch" while the producer is still running. Nobody else will ever
		// publish this object on the GC channel, so the produce does, or the
		// copy would be stranded forever.
		s.db.Publish(chanObjGC, id[:])
	}
	s.logEvent(types.Event{Kind: "object-ready", Object: id, Node: node})
}

// dropNode removes node from ids in place.
func dropNode(ids []types.NodeID, node types.NodeID) []types.NodeID {
	return slices.DeleteFunc(ids, func(n types.NodeID) bool { return n == node })
}

// RemoveObjectLocation implements API. Dropping the last live copy of a
// ready object marks it Lost — the trigger for lineage reconstruction (R6).
// Once every copy is gone and nobody holds a reference, collection is
// complete and the GC-eligible marker retires with the last location.
func (s *Store) RemoveObjectLocation(id types.ObjectID, node types.NodeID) {
	lost := false
	s.objects.mutate(id, existing, func(info *types.ObjectInfo, _ bool) bool {
		info.Locations = dropNode(info.Locations, node)
		info.SpilledOn = dropNode(info.SpilledOn, node)
		if len(info.Locations) == 0 && info.State == types.ObjectReady {
			info.State = types.ObjectLost
			lost = true
		}
		return true
	})
	if lost {
		s.logEvent(types.Event{Kind: "object-lost", Object: id, Node: node})
	}
}

// refOpHistory bounds every record's OpRing. A retry's token must survive in
// the ring for the full retry window (seconds) even while other clients'
// queued deltas land on the same hot object after a shard restart — e.g.
// a widely-shared dependency borrowed by dozens of queued tasks — so the
// ring is sized well past any realistic burst of concurrent mutators
// (512 B worst case per high-churn record).
const refOpHistory = 64

// ModifyObjectRefCounts implements API: one node's ledger flush, applied
// as independent per-object mutations sharing the batch's idempotency
// token (DESIGN.md §12). The token is recorded in each object's RefOps
// ring individually, so a crash that commits part of a batch before the
// ack is lost is repaired exactly by redelivery: already-committed objects
// dedup on the token, the rest apply. A zero delta is a "touch" — the
// object was retained and fully released within one flush interval — and
// carries the retain's semantic obligations (EverRetained, and a GC
// publish if the count sits at zero) without moving the count. The count
// never goes below zero (a raced double-release clamps), and only a
// positive-to-zero transition publishes on the GC channel — objects nobody
// ever retained stay at zero without ever becoming GC-eligible. The
// in-process store cannot fail partially, so the failed set is always nil.
func (s *Store) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	for id, delta := range deltas {
		s.applyRefDelta(node, id, delta, op)
	}
	return nil
}

// applyRefDelta is one object's share of a ledger flush, attributed to the
// flushing node (nil: to nobody). A non-zero op already in the record's
// RefOps ring means this exact delta was applied and its ack lost
// (typically to a shard crash between commit and reply): it is not applied
// again, but the side effects the crash may have cut off are redone.
func (s *Store) applyRefDelta(holder types.NodeID, id types.ObjectID, delta int64, op uint64) {
	gc := false
	s.objects.mutate(id, upsert, func(info *types.ObjectInfo, _ bool) bool {
		if info.RefOps.Seen(op) {
			// Duplicate delivery: the count already moved. The original
			// commit may have died before its marker write and GC publish;
			// the touch re-derives the marker, and the publish is redone if
			// the record is still eligible AND undrained.
			gc = gcEligible(info)
			return false
		}
		info.ID = id
		info.RefOps.Record(op, refOpHistory)
		wasZero := info.EverRetained && info.RefCount == 0
		info.RefCount = max(info.RefCount+delta, 0)
		if info.RefCount > 0 || delta == 0 {
			info.EverRetained = true
		}
		if !holder.IsNil() && delta != 0 {
			if h := info.Holders[holder] + delta; h > 0 {
				if info.Holders == nil {
					info.Holders = make(map[types.NodeID]int64, 1)
				}
				info.Holders[holder] = h
			} else if delete(info.Holders, holder); len(info.Holders) == 0 {
				info.Holders = nil
			}
		}
		gc = !wasZero && info.EverRetained && info.RefCount == 0
		return true
	})
	if gc {
		s.publishGC(id, "object-gc-eligible", types.NodeID{})
	}
}

// PinObjects implements API: one batch of lineage-pin deltas under one
// token, recorded per object like a reference flush's. A pin may reach the
// table before the record it pins (the owner's lineage ensure rides the
// same flush), so a positive delta starts a missing record; an unpin never
// does. The in-process store cannot fail partially.
func (s *Store) PinObjects(deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	for id, delta := range deltas {
		m := existing
		if delta > 0 {
			m = upsert
		}
		s.objects.mutate(id, m, func(info *types.ObjectInfo, _ bool) bool {
			if delta == 0 || info.RefOps.Seen(op) {
				return false
			}
			info.ID = id
			info.RefOps.Record(op, refOpHistory)
			info.LineagePins = max(info.LineagePins+delta, 0)
			return true
		})
	}
	return nil
}

// Retire implements API (retire.go holds the policy).
func (s *Store) Retire(objects []types.ObjectID) Retired { return retire(s, objects) }

func (s *Store) objectFacts(ids []types.ObjectID) []objectFacts {
	out := make([]objectFacts, len(ids))
	for i, id := range ids {
		if !s.objects.view(id, func(o *types.ObjectInfo) { out[i] = objectFactsOf(o) }) {
			out[i].Look = absent
		}
	}
	return out
}

func (s *Store) taskFacts(ids []types.TaskID) []taskFacts {
	out := make([]taskFacts, len(ids))
	for i, id := range ids {
		if !s.tasks.view(id, func(t *types.TaskState) { out[i] = taskFactsOf(t) }) {
			out[i].Look = absent
		}
	}
	return out
}

// Records returns how many task and object records the tables hold.
func (s *Store) Records() (tasks, objects int64) {
	return s.tasks.live.Load(), s.objects.live.Load()
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
	var held []types.ObjectID
	s.objects.scan(func(id types.ObjectID, info *types.ObjectInfo) {
		if info.Holders[node] > 0 {
			held = append(held, id)
		}
	})
	swept := 0
	for _, id := range held {
		gc := false
		adjusted, _ := s.objects.mutate(id, existing, func(info *types.ObjectInfo, _ bool) bool {
			share := info.Holders[node]
			if share <= 0 {
				return false
			}
			if delete(info.Holders, node); len(info.Holders) == 0 {
				info.Holders = nil
			}
			before := info.RefCount
			info.RefCount = max(before-share, 0)
			gc = before > 0 && info.RefCount == 0
			return true
		})
		if adjusted {
			swept++
		}
		if gc {
			s.publishGC(id, "owner-death-sweep", node)
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
	s.objects.mutate(id, existing, func(info *types.ObjectInfo, _ bool) bool {
		switch onDisk := info.IsSpilledOn(node); {
		case spilled == onDisk:
			return false // no change; skip the write
		case !spilled:
			info.SpilledOn = dropNode(info.SpilledOn, node)
		case info.HasLocation(node):
			info.SpilledOn = append(info.SpilledOn, node)
		default:
			return false // location already removed; stale async mark
		}
		return true
	})
}

// GCEligibleObjects returns objects whose refcount fell to zero after
// having been retained and whose copies are not yet fully drained —
// exactly the set whose GC publish a subscriber may have missed. A
// recovered shard service replays these to every GC-channel subscriber at
// (re)subscribe time, so a notification dropped by a crash only delays
// reclamation until the next subscription instead of leaking the object
// forever. The walk is over the durable marker index (retired when the
// last copy drains), so replay cost tracks outstanding garbage, not the
// cluster's full object history; reclaim is idempotent, so the inherent
// duplicates are harmless.
func (s *Store) GCEligibleObjects() []types.ObjectID { return s.objects.markedIDs() }

// Ping implements Pinger: the in-process store is always reachable.
func (s *Store) Ping() bool { return true }

// GetObject implements API.
func (s *Store) GetObject(id types.ObjectID) (types.ObjectInfo, bool) { return s.objects.get(id) }

// Objects implements API (inspection scan, R7).
func (s *Store) Objects() []types.ObjectInfo { return s.objects.collect(nil) }

// --- spillover ---

// PublishSpill implements API.
func (s *Store) PublishSpill(spec types.TaskSpec) {
	s.db.Publish(chanSpill, codec.MustEncode(spec))
	s.logEvent(types.Event{Kind: "spill", Task: spec.ID})
}

// --- node table ---

// publishNode announces a node record on the membership channel. next is
// a copy private to the caller, never the table's own record.
func (s *Store) publishNode(next *types.NodeInfo, kind string) {
	s.db.Publish(chanNodes, codec.MustEncode(next))
	s.logEvent(types.Event{Kind: kind, Node: next.ID})
}

// RegisterNode implements API.
func (s *Store) RegisterNode(info types.NodeInfo) {
	info.Alive = true
	info.LastSeen = s.NowNs()
	s.nodes.mutate(info.ID, upsert, func(rec *types.NodeInfo, _ bool) bool {
		*rec = info.Clone()
		return true
	})
	s.publishNode(&info, "node-join")
}

// Heartbeat implements API. Load snapshots feed the global scheduler's
// placement policy. Liveness stamps are the highest-churn mutation in the
// system and purely ephemeral — a recovered shard repopulates them from the
// next heartbeat within one interval — so they stay out of the WAL, which
// would otherwise grow without bound for zero recovery value; the journal
// sees them only as part of the node's next logged mutation.
func (s *Store) Heartbeat(id types.NodeID, queueLen int, avail types.Resources, store types.StoreStats) {
	now := s.NowNs()
	s.nodes.mutate(id, unlogged, func(info *types.NodeInfo, _ bool) bool {
		info.LastSeen = now
		info.QueueLen = queueLen
		info.Available = avail.Clone()
		info.Store = store
		info.Alive = true
		return true
	})
}

// MarkNodeDead implements API.
func (s *Store) MarkNodeDead(id types.NodeID) {
	var dead types.NodeInfo
	found, _ := s.nodes.mutate(id, existing, func(info *types.NodeInfo, _ bool) bool {
		info.Alive = false
		dead = info.Clone()
		return true
	})
	if found {
		s.publishNode(&dead, "node-dead")
	}
}

// CASNodeState implements API.
func (s *Store) CASNodeState(id types.NodeID, from []types.NodeState, to types.NodeState) bool {
	return s.CASNodeStateOp(id, from, to, 0)
}

// CASNodeStateOp is CASNodeState with an idempotency token (0 = no dedup),
// mirroring ClaimTaskOp: a drain CAS retried across a control-plane
// shard crash is recognized by its token in the record's durable MutOps
// ring and reported won, so the autoscaler (or draining node) proceeds
// instead of treating its own earlier commit as a lost race.
func (s *Store) CASNodeStateOp(id types.NodeID, from []types.NodeState, to types.NodeState, op uint64) bool {
	now := s.NowNs()
	dup := false
	var next types.NodeInfo
	won, _ := s.nodes.mutate(id, existing, func(info *types.NodeInfo, _ bool) bool {
		if info.MutOps.Seen(op) {
			dup = true // this exact CAS already applied
			return false
		}
		if !slices.Contains(from, info.State) {
			return false
		}
		info.MutOps.Record(op, refOpHistory)
		info.State = to
		switch to {
		case types.NodeDraining:
			info.DrainNs = now
		case types.NodeActive:
			info.DrainNs = 0 // rollback: the drain never happened
		}
		next = info.Clone()
		return true
	})
	if won {
		s.publishNode(&next, "node-state:"+to.String())
	}
	return won || dup
}

// GetNode implements API.
func (s *Store) GetNode(id types.NodeID) (types.NodeInfo, bool) { return s.nodes.get(id) }

// Nodes implements API, ordered by ID.
func (s *Store) Nodes() []types.NodeInfo {
	out := s.nodes.collect(nil)
	slices.SortFunc(out, func(a, b types.NodeInfo) int { return bytes.Compare(a.ID[:], b.ID[:]) })
	return out
}

// --- event log ---

// logKind logs ev under kind prefix+state, building the string only when
// the event log is on.
func (s *Store) logKind(prefix string, state fmt.Stringer, ev types.Event) {
	if s.eventsOn.Load() {
		ev.Kind = prefix + state.String()
		s.logEvent(ev)
	}
}

// eventRing bounds each node's event list: the log is a narrative of recent
// history for people and profilers (R7); nothing replays it.
const eventRing = 1024

func (s *Store) logEvent(ev types.Event) {
	if !s.eventsOn.Load() {
		return
	}
	ev.TimeNs = s.NowNs()
	s.db.AppendRing(keyEvents+ev.Node.Hex(), codec.MustEncodeGob(ev), eventRing)
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

// Subscribe implements API. The per-record topics count the record as
// watched while the subscription is open, so a mutation nobody listens to
// publishes nothing.
func (s *Store) Subscribe(topic Topic, id [types.IDSize]byte) Sub {
	switch topic {
	case TopicTaskStatus:
		return s.tasks.subscribe(s.db, chanTaskStatus, types.TaskID(id))
	case TopicObjectReady:
		return s.objects.subscribe(s.db, chanObjReady, types.ObjectID(id))
	}
	return s.db.Subscribe(broadcastChannel[topic])
}

var _ API = (*Store)(nil)
