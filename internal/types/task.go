package types

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Arg is a task argument: either an inline encoded value or a reference to
// an object produced by another task. Reference arguments are what create
// dataflow edges (paper R5).
type Arg struct {
	// IsRef marks the argument as a future/object reference.
	IsRef bool
	// Ref is the referenced object (valid iff IsRef).
	Ref ObjectID
	// Value is the inline encoded value (valid iff !IsRef).
	Value []byte
}

// RefArg builds a reference argument.
func RefArg(id ObjectID) Arg { return Arg{IsRef: true, Ref: id} }

// ValueArg builds an inline argument.
func ValueArg(b []byte) Arg { return Arg{Value: b} }

// TaskSpec fully describes a task submission. The spec is stored in the
// control plane's task table and doubles as the lineage record: replaying a
// spec reproduces its outputs (DESIGN.md §4.1).
type TaskSpec struct {
	ID          TaskID
	Function    string
	Args        []Arg
	NumReturns  int
	Resources   Resources
	Parent      TaskID // task (or driver root) that submitted this task
	SubmitIndex uint64 // index of this submission within the parent
	MaxRetries  int    // retries on worker failure before Failed
	// Locality is a soft placement hint: the scheduler prefers this node
	// when it is alive and feasible, and falls back silently otherwise.
	Locality NodeID
	// Group pins the task to a placement group's bundle: the task runs only
	// on the node holding the reservation for Bundle, drawing resources
	// from the reservation instead of the node's general pool.
	Group  PlacementGroupID
	Bundle int // bundle index within Group (valid iff Group is set)
	// TraceID is the trace context: assigned once per driver session and
	// inherited by every descendant task, so the profiler can stitch a
	// whole computation — including data-plane spans recorded far from the
	// task table — into one trace (R7). Zero means untraced.
	TraceID uint64
	// Job attributes the task to a tenant job (DESIGN.md §14): fair-share
	// dispatch weighs it by the job's weight, admission quotas meter it,
	// and a job stop buries it and reclaims its records. Nil means jobless
	// (the default weight-1 share, never bulk-reclaimed).
	Job JobID
	// Actor marks the task as an actor method (or constructor). It rides
	// the task record and the wire form; no scheduling decision reads it,
	// and actor methods are dispatched like any other task.
	Actor bool
	// Origin is the node the task was submitted through — where the futures
	// it returns were created and where a Get on them most likely blocks. A
	// node that finishes the task elsewhere sends a small result straight to
	// Origin's object store (DESIGN.md §6.3). It is part of the lineage
	// record, so on a replay it may name a node that has since died; nil
	// (specs recorded before the field existed) means no delivery.
	Origin NodeID

	// returns caches the return IDs CacheReturns derived, so the submitter,
	// the control plane's birth and the executor do not hash them again. It
	// travels with in-process copies of the spec and is never encoded: a
	// decoded spec derives its IDs afresh.
	returns []ObjectID
}

// Clone returns a deep copy: no slice or map is shared with s.
func (s *TaskSpec) Clone() TaskSpec {
	c := *s
	c.Args = slices.Clone(s.Args)
	for i := range c.Args {
		c.Args[i].Value = bytes.Clone(c.Args[i].Value)
	}
	c.Resources = s.Resources.Clone()
	return c
}

// InGroup reports whether the task is pinned to a placement-group bundle.
func (s *TaskSpec) InGroup() bool { return !s.Group.IsNil() }

// ReturnID is the object ID of the i-th return value.
func (s *TaskSpec) ReturnID(i int) ObjectID {
	if i < 0 || i >= s.NumReturns {
		panic(fmt.Sprintf("types: return index %d out of range [0,%d)", i, s.NumReturns))
	}
	if len(s.returns) == s.NumReturns {
		return s.returns[i]
	}
	return ObjectIDForReturn(s.ID, i)
}

// CacheReturns derives the spec's return IDs once and keeps them on s, so
// ReturnID on s and on every later copy of it reads them instead of hashing.
// The submitter calls it while the spec is still its own; the result is
// shared by the copies and must not be modified.
func (s *TaskSpec) CacheReturns() []ObjectID {
	if len(s.returns) != s.NumReturns {
		s.returns = make([]ObjectID, s.NumReturns)
		for i := range s.returns {
			s.returns[i] = ObjectIDForReturn(s.ID, i)
		}
	}
	return s.returns
}

// Deps returns the object IDs this task depends on (its reference args).
func (s *TaskSpec) Deps() []ObjectID {
	var deps []ObjectID
	for _, a := range s.Args {
		if a.IsRef {
			deps = append(deps, a.Ref)
		}
	}
	return deps
}

// DistinctDeps is Deps without repeats: the objects whose records this
// task's record pins once each (ObjectInfo.LineagePins).
func (s *TaskSpec) DistinctDeps() []ObjectID {
	var deps []ObjectID
	for _, a := range s.Args {
		if a.IsRef && !slices.Contains(deps, a.Ref) {
			deps = append(deps, a.Ref)
		}
	}
	return deps
}

// Validate checks the spec for structural errors before submission.
func (s *TaskSpec) Validate() error {
	if s.ID.IsNil() {
		return fmt.Errorf("types: task has nil ID")
	}
	if s.Function == "" {
		return fmt.Errorf("types: task %s has empty function name", s.ID)
	}
	if s.NumReturns < 0 {
		return fmt.Errorf("types: task %s has negative NumReturns", s.ID)
	}
	if err := s.Resources.Validate(); err != nil {
		return fmt.Errorf("task %s: %w", s.ID, err)
	}
	if s.Group.IsNil() && s.Bundle != 0 {
		return fmt.Errorf("types: task %s has bundle index %d without a placement group", s.ID, s.Bundle)
	}
	if !s.Group.IsNil() && s.Bundle < 0 {
		return fmt.Errorf("types: task %s has negative bundle index %d", s.ID, s.Bundle)
	}
	return nil
}

// TaskStatus is the lifecycle state recorded in the task table.
type TaskStatus int

// Task lifecycle. Queued means a specific node's local scheduler owns the
// task (claimed via CAS, so concurrent global schedulers converge on one
// owner); Lost means the task finished but its outputs were lost to a
// failure and it may be replayed; Failed is a terminal application error.
const (
	TaskPending TaskStatus = iota
	TaskQueued
	TaskScheduled
	TaskRunning
	TaskFinished
	TaskLost
	TaskFailed
)

var taskStatusNames = [...]string{"PENDING", "QUEUED", "SCHEDULED", "RUNNING", "FINISHED", "LOST", "FAILED"}

func (s TaskStatus) String() string {
	if s < 0 || int(s) >= len(taskStatusNames) {
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
	return taskStatusNames[s]
}

// Terminal reports whether no further transitions are expected.
func (s TaskStatus) Terminal() bool { return s == TaskFinished || s == TaskFailed }

// TaskState is the task-table record: spec + mutable execution state.
type TaskState struct {
	Spec    TaskSpec
	Status  TaskStatus
	Node    NodeID
	Worker  WorkerID
	Error   string
	Retries int
	// Timestamps in nanoseconds since the cluster epoch, for profiling (R7).
	SubmittedNs int64
	ScheduledNs int64
	StartedNs   int64
	FinishedNs  int64
	// LastTransitionNs is stamped on every status change, including ones
	// (like the retry path's reset to PENDING) that touch no per-phase
	// timestamp. The global scheduler's pending-task sweep ages tasks from
	// it, so a freshly-reset task gets its full grace period instead of
	// being measured from the original submit.
	LastTransitionNs int64
	// MutOps dedups redelivered CAS claims and ledger batches (see OpRing):
	// a claim reported lost to its own commit would strand the task claimed
	// but never enqueued.
	MutOps OpRing
	// Owner is the node whose task ledger holds authority over this record
	// (DESIGN.md §13): transitions arrive as batched async deltas from the
	// owner, and the table is a follower. Set by the task's birth to the
	// submitting node, transferred by the placed-claim CAS, and cleared
	// (nil) when the task sits unowned in the global spill queue or after an
	// owner-death transfer.
	Owner NodeID
	// OwnerSeq is the owner's per-task transition sequence number last
	// applied to this record. A delta applies only if it carries the
	// record's current Owner and a strictly newer sequence, so a stale
	// owner's late flush (or an out-of-order redelivery) can never regress
	// the follower past an ownership change.
	OwnerSeq uint64
}

// Clone returns a deep copy: no slice or map is shared with t.
func (t *TaskState) Clone() TaskState {
	c := *t
	c.Spec = t.Spec.Clone()
	c.MutOps = slices.Clone(t.MutOps)
	return c
}

// TaskStateDelta is one owner-ledger entry in a batched ModifyTaskStates
// flush (DESIGN.md §13). It carries the owner's full latest view of the
// mutable execution state — not an increment — so transitions that
// coalesced inside one flush interval (QUEUED→SCHEDULED→RUNNING→FINISHED
// for a sub-millisecond task) land as a single delta, and redelivery under
// the batch token is naturally idempotent.
//
// A delta that carries Spec is a birth instead: the owner's first write of
// a task born on its node, which inserts the record (PENDING, Owner and
// OwnerSeq as given) if the table holds none and derives the return
// objects' producer edges from the spec.
type TaskStateDelta struct {
	ID    TaskID
	Owner NodeID // the ledger's node; must match the record's Owner to apply
	Seq   uint64 // owner's transition sequence; must exceed the record's OwnerSeq
	Spec  *TaskSpec

	Status  TaskStatus
	Node    NodeID
	Worker  WorkerID
	Error   string
	Retries int

	SubmittedNs      int64
	ScheduledNs      int64
	StartedNs        int64
	FinishedNs       int64
	LastTransitionNs int64
}

// TaskLedgerBatch is the wire record of one ModifyTaskStates flush: a
// node's coalesced task-state deltas bound to one idempotency token. It is
// a hot record on the steady-state control path, so the codec gives it a
// reflection-free binary fast path like the table records.
type TaskLedgerBatch struct {
	Node   NodeID
	Deltas []TaskStateDelta
	Op     uint64
}

// ObjectState is the lifecycle of an entry in the object table.
type ObjectState int

// Object lifecycle.
const (
	ObjectPending ObjectState = iota // producer not yet finished
	ObjectReady                      // at least one live location
	ObjectLost                       // all locations failed; reconstructable
)

var objectStateNames = [...]string{"PENDING", "READY", "LOST"}

func (s ObjectState) String() string {
	if s < 0 || int(s) >= len(objectStateNames) {
		return fmt.Sprintf("ObjectState(%d)", int(s))
	}
	return objectStateNames[s]
}

// ObjectInfo is the object-table record.
type ObjectInfo struct {
	ID        ObjectID
	Size      int64
	Producer  TaskID // task whose execution created the object (lineage edge)
	State     ObjectState
	Locations []NodeID
	// RefCount is the cluster-wide number of live references: driver and
	// task handles created at submit/put time plus scheduler borrows for
	// queued task arguments (see internal/lifetime). Objects that no tracker
	// ever retained stay at zero and are never garbage-collected, which
	// preserves the pre-lifetime behaviour.
	RefCount int64
	// EverRetained records that RefCount was ever positive. Together with
	// RefCount == 0 it marks the object GC-eligible — durable state that
	// lets a recovered control-plane shard republish GC notifications a
	// crash may have dropped (never-retained objects stay ineligible, as
	// before the lifetime subsystem).
	EverRetained bool
	// RefOps dedups redelivered refcount deltas (see OpRing).
	RefOps OpRing
	// Holders attributes RefCount to the nodes whose ledger flushes
	// contributed it (DESIGN.md §12). When a node dies without releasing,
	// the owner-death sweep subtracts its attributed share instead of
	// leaking the count forever. Deltas flushed without a node identity
	// (legacy single-ID path, direct API users) are attributed to the zero
	// NodeID and stay unswept — the pre-ownership conservative behaviour.
	Holders map[NodeID]int64
	// SpilledOn lists the subset of Locations where the copy lives on the
	// node's disk spill tier rather than in memory. Pulling from a memory
	// location is cheaper, so placement and transfer both prefer them.
	SpilledOn []NodeID
	// LineagePins counts the task records in the task table that take this
	// object by reference: replaying any of them needs the object, and so
	// its producer's record, even after every reference to it is gone. Pins
	// are not references — they keep the record, never the bytes — and are
	// seen only by Dead.
	LineagePins int64
}

// Dead reports whether nothing can ask for the object again: it was
// referenced once, no reference and no copy is left, and no surviving task
// record would need it for a replay. A dead record is lineage for nobody
// and may be retired (DESIGN.md §17).
func (o *ObjectInfo) Dead() bool {
	return o.EverRetained && o.RefCount == 0 && len(o.Locations) == 0 && o.LineagePins == 0
}

// Clone returns a deep copy: no slice or map is shared with o.
func (o *ObjectInfo) Clone() ObjectInfo {
	c := *o
	c.Locations = slices.Clone(o.Locations)
	c.SpilledOn = slices.Clone(o.SpilledOn)
	c.RefOps = slices.Clone(o.RefOps)
	c.Holders = maps.Clone(o.Holders)
	return c
}

// HasLocation reports whether node holds a copy.
func (o *ObjectInfo) HasLocation(node NodeID) bool {
	for _, n := range o.Locations {
		if n == node {
			return true
		}
	}
	return false
}

// IsSpilledOn reports whether node's copy is on its disk spill tier.
func (o *ObjectInfo) IsSpilledOn(node NodeID) bool {
	for _, n := range o.SpilledOn {
		if n == node {
			return true
		}
	}
	return false
}

// ErrReclaimed is what a late reader of a retired object gets: neither the
// object's record nor its producer's is in the control plane, so there are
// no bytes to fetch and no lineage to replay them from (DESIGN.md §17).
// Resubmitting the producer's spec runs it again under the same IDs.
// core.ErrReclaimed is this value.
var ErrReclaimed = errors.New("object reclaimed: its record and its lineage were retired")

// ReasonReclaimed prefixes the failure message stored into the returns of a
// task that was parked on a retired argument; the core layer recognizes it
// and surfaces ErrReclaimed from Get.
const ReasonReclaimed = "argument-reclaimed: "

// StoreStats is a node's object-store usage snapshot. Nodes publish it with
// heartbeats so dashboards and placement see memory pressure without asking
// the node (the control plane stays the single source of truth, R7).
type StoreStats struct {
	UsedBytes    int64 // memory-resident payload bytes
	SpilledBytes int64 // bytes currently on the disk spill tier
	Objects      int   // resident objects, memory + spilled
	Spills       int64 // cumulative spill-to-disk operations
	Restores     int64 // cumulative restores from disk
	Reclaimed    int64 // cumulative objects reclaimed by lifetime GC
	TierEvicted  int64 // cumulative spill files reclaimed by disk-budget pressure
}

// NodeState is the drain state machine of a node-table record (DESIGN.md
// §10). It is orthogonal to Alive: a node is Alive until it crashes or
// deregisters, while State tracks the administrative drain protocol the
// autoscaler (or `rayctl drain`) drives.
type NodeState int

// Node drain lifecycle. Active nodes admit tasks and receive placements.
// Draining nodes are fenced: the local scheduler refuses admissions, the
// global scheduler stops placing there, gang reservations are re-placed as
// a unit, and the node spill-migrates every referenced object to peers.
// Drained is terminal for the incarnation: migration finished and the node
// deregisters. A drain that cannot complete (no capacity anywhere, or an
// operator abort) rolls back Draining→Active and the node resumes.
const (
	NodeActive NodeState = iota
	NodeDraining
	NodeDrained
)

var nodeStateNames = [...]string{"ACTIVE", "DRAINING", "DRAINED"}

func (s NodeState) String() string {
	if s < 0 || int(s) >= len(nodeStateNames) {
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
	return nodeStateNames[s]
}

// NodeInfo is the node-table record.
type NodeInfo struct {
	ID       NodeID
	Addr     string // transport address of the node's server
	Total    Resources
	Alive    bool
	LastSeen int64 // heartbeat, ns since cluster epoch
	// State is the drain state machine (Active/Draining/Drained), WAL'd
	// with the record and transitioned only through CASNodeState so
	// concurrent autoscalers converge on one drain decision.
	State NodeState
	// DrainNs is stamped when the node entered Draining (cleared on
	// rollback); the autoscaler's drain-timeout watchdog ages from it.
	DrainNs int64
	// Load snapshot published with heartbeats; the global scheduler's
	// placement policy consumes these.
	QueueLen  int
	Available Resources
	// Store is the object-store usage published with heartbeats.
	Store StoreStats
	// MutOps dedups a drain CAS retried across a shard crash (see OpRing).
	MutOps OpRing
}

// Clone returns a deep copy: no slice or map is shared with n.
func (n *NodeInfo) Clone() NodeInfo {
	c := *n
	c.Total = n.Total.Clone()
	c.Available = n.Available.Clone()
	c.MutOps = slices.Clone(n.MutOps)
	return c
}

// Schedulable reports whether new work may be placed on the node: it must
// be alive and not in (or past) drain.
func (n *NodeInfo) Schedulable() bool { return n.Alive && n.State == NodeActive }

// Event is one entry in the event log (paper R7: profiling and debugging).
type Event struct {
	TimeNs int64
	Kind   string // e.g. "submit", "schedule", "start", "finish", "spill"
	Task   TaskID
	Object ObjectID
	Node   NodeID
	Worker WorkerID
	Detail string
}
