// Package gcs implements the logically-centralized control plane of the
// paper's Section 3.2.1 (what Ray later called the Global Control Store).
// It layers typed tables — tasks, objects, nodes, jobs and placement
// groups — and the event log over the sharded kv store, and publishes the
// notifications (object ready, task status, spillover, node membership)
// that let every other component be stateless.
package gcs

import (
	"repro/internal/metrics"
	"repro/internal/types"
)

// Sub is a pub/sub subscription handle. kv.Subscription satisfies it; the
// transport client (Sharded) provides its own resilient implementation
// with the same shape.
type Sub interface {
	C() <-chan []byte
	Close()
}

// API is the control-plane surface consumed by schedulers, workers, object
// stores, and tools. A single implementation backed by the local kv store
// serves in-process clusters; a transport-backed client implements the same
// interface for multi-process clusters, which is what makes every component
// except the database itself stateless (paper Section 3.2.1).
type API interface {
	// NowNs returns nanoseconds since the cluster epoch. All control-state
	// timestamps use this clock so profiling timelines line up (R7).
	NowNs() int64

	// Task table. A task's record is born in its owner's ledger and
	// reaches the table as a birth in ModifyTaskStates (DESIGN.md §13).
	GetTask(id types.TaskID) (types.TaskState, bool)
	// ClaimTask atomically transitions the task's status to `to` iff the
	// current status is in `from`, reporting success. Replay/resubmission
	// races are settled through this: exactly one contender wins the
	// transition back to PENDING and re-executes the task. A non-nil owner
	// makes it the ownership-transfer CAS (DESIGN.md §13): on success it
	// also stamps owner as the record's Owner and Node and bumps OwnerSeq.
	// With types.NilNodeID it is the plain status CAS, which clears the
	// owner and bumps OwnerSeq on a transition to PENDING. The winner
	// receives the new OwnerSeq — the base its task ledger's async deltas
	// must exceed — so a stale delta from any earlier ownership tenure can
	// never apply past the transfer.
	ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool)
	// ModifyTaskStates applies one owner's task-ledger flush: a batch of
	// full-state deltas (latest owner view per task, transitions coalesced),
	// bound to one idempotency token recorded in each touched record's
	// MutOps ring so redelivery after a shard crash re-applies exactly the
	// records the crash missed. A delta applies only if its Owner matches
	// the record's and its Seq exceeds the record's OwnerSeq. A delta that
	// carries its Spec is a birth: it inserts the record exactly once (a
	// redelivery under the same token finds its own record and counts as
	// applied), gives the task's return objects their producer edges, so a
	// born task needs no EnsureObjects, and pins each distinct by-reference
	// argument once (types.ObjectInfo.LineagePins, under op) if the record
	// is its own. Returns the IDs whose deltas could NOT be applied — their
	// shard stayed unreachable, or, for a birth, a pin or edge did not land
	// — so the caller requeues them under the same token, and the births
	// that found a record already there, which is how replayed submissions
	// deduplicate; deltas rejected by the owner/seq guard (authority moved
	// on) are consumed, not failed. Nil means fully applied.
	ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID
	// ScanTasks is the one task-table scan: the records f selects, in
	// submit order, plus whether the scan covered the whole table (false
	// when a shard was unreachable — the owner-death transfer and the job
	// reclaim pass retry later rather than concluding from a partial view).
	// Each shard applies the filter, so only matching records cross the
	// wire.
	ScanTasks(f TaskFilter) ([]types.TaskState, bool)

	// Object table. EnsureObjects writes producer edges: each entry creates
	// a pending record naming its producing task, or heals a missing
	// Producer on a record that a location publish created first. The
	// reconstructor's heal calls it, and so do Sharded's births, as the
	// object-side step of ModifyTaskStates. Returns the IDs that could NOT be
	// ensured (their shard stayed unreachable) so the caller requeues them;
	// nil means fully applied. Idempotent, so no token is needed.
	// AddObjectLocation marks the object ready and tells the nodes watching
	// it (WatchObjects); RemoveObjectLocation transitions to Lost when the last copy
	// disappears.
	EnsureObjects(producers map[types.ObjectID]types.TaskID) []types.ObjectID
	AddObjectLocation(id types.ObjectID, node types.NodeID, size int64)
	RemoveObjectLocation(id types.ObjectID, node types.NodeID)
	GetObject(id types.ObjectID) (types.ObjectInfo, bool)
	Objects() []types.ObjectInfo
	// WatchObjects is a node's dependency table looking at the objects its
	// parked tasks wait on (DESIGN.md §3.1): one answer per id, in ids'
	// order. A ready object's answer holds what a pull of it needs of its
	// record. Any other object that has a record gets node as a watcher: the
	// object's next location is published once on node's TopicNodeReady
	// channel, so the node needs no subscription per object. Watching again
	// is harmless; a watch lasts until that location or until the record is
	// retired.
	WatchObjects(node types.NodeID, ids []types.ObjectID) []ObjectWatch

	// Object lifetime (internal/lifetime). ModifyObjectRefCounts applies one
	// node's ledger flush: a batch of net per-object deltas attributed to
	// node, bound to one idempotency token recorded in each touched object's
	// RefOps ring (so redelivery after a shard crash re-applies exactly the
	// objects the crash missed; op 0 disables dedup). A transition from
	// positive to zero publishes the object on TopicObjectGC, which is what
	// makes reclamation automatic. A zero delta is a touch: retain+release
	// cycles that net out within a flush interval still mark the object
	// ever-retained and, at count zero, GC-eligible. Returns the IDs whose
	// deltas could NOT be applied (their shard stayed unreachable past the
	// retry window) so the caller can requeue them under the same token; nil
	// means fully applied. MarkObjectSpilled records whether a node's copy
	// is on its disk spill tier (transfer and placement prefer memory
	// copies).
	ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID
	// SweepDeadNodeRefs subtracts every refcount share attributed to node —
	// an owner that died without flushing its releases — making the objects
	// it alone kept alive GC-eligible. Idempotent; reports objects adjusted,
	// or negative when part of the object table was unreachable and the
	// caller should retry the (idempotent) sweep later.
	SweepDeadNodeRefs(node types.NodeID) int
	MarkObjectSpilled(id types.ObjectID, node types.NodeID, spilled bool)

	// Placement-group table (gang scheduling). CreatePlacementGroup inserts
	// the record exactly once (idempotent by group ID).
	// CASPlacementGroupState is the claim/commit primitive of the gang
	// protocol: Pending→Placing claims a group for one scheduler's
	// reservation pass, Placing→Placed commits the bundle→node assignment,
	// rollback paths transition back to Pending (clearing BundleNodes), and
	// removal is the transition to the terminal Removed state from any live
	// one, after which the gang pass releases the group's bundle
	// reservations and fails its pending member tasks.
	// The claimant token fences it: a transition to Placing records claim, a
	// transition to Placed additionally requires it to match the recorded
	// claim, and every rollback to Pending clears it. claim 0 skips the
	// token bookkeeping (the stale-claim sweep and the dead-member rollback,
	// which fence by state alone). Every transition publishes the updated
	// record on TopicPlacementGroups.
	CreatePlacementGroup(spec types.PlacementGroupSpec) bool
	GetPlacementGroup(id types.PlacementGroupID) (types.PlacementGroupInfo, bool)
	PlacementGroups() []types.PlacementGroupInfo
	CASPlacementGroupState(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64) bool

	// Job table (multi-tenancy, DESIGN.md §14). CreateJob inserts the record
	// exactly once (idempotent by job ID); CASJobState drives the lifecycle
	// (Running→Stopping→Stopped→Purged). Stopped means the job's tasks are
	// buried and its references dropped; the transition to Purged, once its
	// task and object records are gone, stamps PurgedNs exactly once, and
	// the Purged record is the tombstone that fences replayed submissions.
	// Every transition publishes the updated record on TopicJobs, which the
	// global schedulers' fair-share queue and reclaim pass consume.
	CreateJob(spec types.JobSpec) bool
	GetJob(id types.JobID) (types.JobInfo, bool)
	Jobs() []types.JobInfo
	CASJobState(id types.JobID, from []types.JobState, to types.JobState) bool
	// ForceReleaseObjects is the job-stop reclaim hammer: each object's
	// refcount is forced to zero, its Holders attribution dropped, and —
	// when copies remain — a GC publish fires so the lifetime subsystem
	// reclaims the bytes everywhere. Idempotent. Returns the IDs whose
	// shard was unreachable so the caller retries them; nil means fully
	// applied.
	ForceReleaseObjects(ids []types.ObjectID) []types.ObjectID

	// Record lifetime (DESIGN.md §17). Retire is the one entry point: it
	// takes objects believed dead — a node proposes what its GC drained, a
	// job purge everything the job produced — re-checks each against the
	// tables, and removes the task records (with their return objects'
	// records) that are lineage for nobody any more, following unpinned
	// arguments back through a released chain. Early, duplicate and stale
	// proposals are refused; the call is idempotent.
	Retire(objects []types.ObjectID) Retired
	// PurgeTasks removes the terminal records among ids and drops the pins
	// they held, after the records are gone. args holds what the removed
	// records took by reference, once per record and distinct argument;
	// left holds the IDs still in the table — not terminal, or shard
	// unreachable.
	PurgeTasks(ids []types.TaskID) (args []types.ObjectID, left []types.TaskID)

	// Spillover queue (Section 3.2.2): local schedulers publish tasks they
	// decline; global schedulers subscribe to TopicSpill.
	PublishSpill(spec types.TaskSpec)

	// Node table and membership events (TopicNodes).
	RegisterNode(info types.NodeInfo)
	Heartbeat(id types.NodeID, queueLen int, avail types.Resources, store types.StoreStats)
	MarkNodeDead(id types.NodeID)
	// CASNodeState atomically advances a node's drain state machine
	// (Active→Draining→Drained, with Draining→Active as the rollback) iff
	// the current state is in `from`, reporting success. The autoscaler's
	// drain decision, the node's own Drained commit, and operator aborts
	// all race through this CAS, so exactly one contender wins each
	// transition; every win publishes the updated record on the node
	// channel (schedulers fence placement, the node starts its drain).
	CASNodeState(id types.NodeID, from []types.NodeState, to types.NodeState) bool
	GetNode(id types.NodeID) (types.NodeInfo, bool)
	Nodes() []types.NodeInfo

	// Event log (R7).
	LogEvent(ev types.Event)
	Events() []types.Event

	// Subscribe opens one of the control plane's pub/sub channels. A
	// per-record topic hears only the record id names; a broadcast topic
	// ignores id (callers pass the nil ID of the kind it carries). Once
	// Subscribe returns, no later publish on the channel can be missed.
	Subscribe(topic Topic, id [types.IDSize]byte) Sub
}

// ObjectWatch is what WatchObjects answers of one object.
type ObjectWatch struct {
	// Locations lists the copies of a ready object; nil if it is not ready.
	// SpilledOn and Size are the rest a pull of a ready object needs: the
	// copies on a disk spill tier, and the object's size.
	Locations, SpilledOn []types.NodeID
	Size                 int64
	// Lineage reports that the record names the object's producer, and Lost
	// that every copy of a ready object is gone. An object with no record,
	// or whose shard did not answer, reads as neither and is not watched.
	Lineage, Lost bool
}

// TaskFilter selects the records of an API.ScanTasks scan. The zero value
// selects every task; set fields narrow the selection and combine.
type TaskFilter struct {
	// Owner, when set, selects the live (non-terminal) tasks whose record
	// names it as their ledger authority: the owner-death transfer's set.
	Owner types.NodeID
	// Job, when set, selects the job's tasks in any status: the reclaim
	// pass's set.
	Job types.JobID
	// Pending, when set, selects the PENDING tasks whose latest transition
	// is at least PendingForNs old on the answering shard's own clock —
	// tasks claimed by nobody, typically because their spill publish died
	// with a control-plane shard: the global scheduler's rescue sweep's
	// set. The scan walks the PENDING marker index, so it is O(pending),
	// not O(history), and clients' clock skew does not enter it.
	Pending      bool
	PendingForNs int64
}

func (f TaskFilter) match(st *types.TaskState) bool {
	return (f.Owner.IsNil() || st.Owner == f.Owner && !st.Status.Terminal()) &&
		(f.Job.IsNil() || st.Spec.Job == f.Job)
}

// stale reports whether st is PENDING and its latest transition at least
// f.PendingForNs before now.
func (f TaskFilter) stale(st *types.TaskState, now int64) bool {
	last := max(st.SubmittedNs, st.LastTransitionNs)
	return st.Status == types.TaskPending && last != 0 && now-last >= f.PendingForNs
}

// Topic names a control-plane pub/sub channel (API.Subscribe). The first
// is per record: the subscription hears one task's channel, which lives on
// the shard owning that record. The second is per node, and every shard
// publishes on it. The rest are broadcasts every shard publishes on; a
// subscription to one merges every shard's feed and ignores the ID it was
// given.
type Topic uint8

const (
	// TopicTaskStatus carries one task's status transitions; payload
	// [1]byte{status}.
	TopicTaskStatus Topic = iota
	// TopicNodeReady carries the objects one node watches (WatchObjects),
	// each as it gains its first copy since the watch, with that copy's
	// node and the object's size (DecodeNodeReady).
	TopicNodeReady
	// TopicObjectGC carries objects whose reference count drained to zero;
	// payload the ObjectID bytes. A subscription over the wire first
	// replays the objects eligible now, so a publish a shard crash dropped
	// is delivered late rather than never.
	TopicObjectGC
	// TopicSpill carries the tasks local schedulers decline
	// (DecodeSpillSpec).
	TopicSpill
	// TopicNodes carries a node record on every join, death and drain
	// transition (DecodeNodeEvent).
	TopicNodes
	// TopicPlacementGroups carries a placement-group record on every
	// transition (DecodeGroupEvent).
	TopicPlacementGroups
	// TopicJobs carries a job record on every transition (DecodeJobEvent).
	TopicJobs
)

// broadcastChannel is the kv channel of each broadcast topic ("" for the
// per-record ones).
var broadcastChannel = [...]string{
	TopicObjectGC:        chanObjGC,
	TopicSpill:           chanSpill,
	TopicNodes:           chanNodes,
	TopicPlacementGroups: chanGroups,
	TopicJobs:            chanJobs,
}

// TelemetrySnapshot is a node's most recent published metrics snapshot as
// held by the control plane.
type TelemetrySnapshot struct {
	Node types.NodeID
	AtNs int64 // control-plane clock when published
	Snap metrics.Snapshot
}

// TelemetrySink is the optional observability surface of a control plane
// (optional like Pinger, so API fakes in tests need not implement it).
// Nodes publish a metrics snapshot plus their drained span buffers with
// each heartbeat; dashboards and the profiler read the aggregate back.
// Telemetry is deliberately ephemeral — held in memory, never WAL'd — a
// restarted shard simply repopulates from the next heartbeats (DESIGN.md
// §11).
type TelemetrySink interface {
	// PublishTelemetry replaces the node's snapshot and appends spans to
	// the control plane's bounded span ring.
	PublishTelemetry(id types.NodeID, snap metrics.Snapshot, spans []metrics.SpanRecord)
	// Telemetry returns the latest snapshot per live publisher.
	Telemetry() []TelemetrySnapshot
	// Spans returns the buffered data-plane spans (oldest first per shard;
	// cross-shard order is unspecified — consumers sort by StartNs).
	Spans() []metrics.SpanRecord
}

// Pinger is optionally implemented by API implementations that can probe
// control-plane liveness. Callers that see a failed read can distinguish
// "the record does not exist" from "the control plane (or the shard owning
// the record) is temporarily unreachable" — the difference between a
// permanent error and a retryable one (see fault.Reconstructor).
type Pinger interface {
	// Ping reports whether the control plane is currently reachable. For a
	// sharded deployment this means every shard answers.
	Ping() bool
}

// Control-plane key and channel naming. Exact-match keys hashed across
// shards, as Section 3.2.1 prescribes.
const (
	keyTask   = "task:"   // + TaskID hex -> TaskState
	keyObject = "obj:"    // + ObjectID hex -> ObjectInfo
	keyNode   = "node:"   // + NodeID hex -> NodeInfo
	keyGroup  = "pg:"     // + PlacementGroupID hex -> PlacementGroupInfo
	keyJob    = "jobrec:" // + JobID hex -> JobInfo
	keyEvents = "events:" // + NodeID hex -> list of Event

	// keyMetaEpoch stores the cluster clock epoch (unix nanoseconds) so
	// NowNs stays monotonic across control-plane incarnations.
	keyMetaEpoch = "meta:epoch"

	// Index keys: durable marker sets maintained on state transitions so
	// the rescue sweeps stay O(candidates) instead of O(history). Both are
	// written by the Store itself, so in a sharded deployment each marker
	// lives in the same shard's kv as the record it indexes.
	keyPendIdx = "pendidx:" // + TaskID hex; task currently PENDING
	keyGCIdx   = "gcidx:"   // + ObjectID hex; GC-eligible, not yet drained

	chanNodeReady  = "nready:" // + NodeID hex; payload = ObjectID, location NodeID, size
	chanTaskStatus = "tstat:"  // + TaskID hex; payload = [1]byte{status}
	chanSpill      = "spill"   // payload = gob(TaskSpec)
	chanNodes      = "nodes"   // payload = gob(NodeInfo)
	chanObjGC      = "objgc"   // payload = ObjectID bytes; refcount hit zero
	chanGroups     = "pgroups" // payload = gob(PlacementGroupInfo)
	chanJobs       = "jobs"    // payload = encoded JobInfo
)
