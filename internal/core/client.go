package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/gcs"
	"repro/internal/types"
)

// Backend is what the API needs from the node it runs on. node.Node is the
// production implementation; tests may substitute fakes.
type Backend interface {
	// SubmitTask hands a task to the node's local scheduler (bottom-up
	// scheduling: locally-born work goes to the local scheduler first).
	SubmitTask(spec types.TaskSpec) error
	// ResolveObject blocks until the object's bytes are locally available,
	// fetching from peers and triggering lineage reconstruction as needed;
	// a TaskOwner waits owner-side while it owns the object's producer.
	ResolveObject(ctx context.Context, id types.ObjectID) ([]byte, error)
	// ObjectLocal reports whether the object is already in the local store.
	ObjectLocal(id types.ObjectID) bool
	// ObjectsLocal is ObjectLocal for many objects in one look at the
	// store: it marks local[i] for each ids[i] there that is not marked
	// yet, and returns how many it marked.
	ObjectsLocal(ids []types.ObjectID, local []bool) int
	// Follow is a Wait on refs no ledger here counts, ids[i] for each i in
	// which: each is told on told, once, when a copy of it exists anywhere,
	// or with the error that ends the wait on it. told has room for every
	// tell. stop unregisters what has not been told. node.Node registers
	// them on its dependency table's rows (DESIGN.md §3.1).
	Follow(ids []types.ObjectID, which []int, told chan<- Followed) (stop func())
	// PutObject stores bytes directly (driver- or task-created objects).
	PutObject(id types.ObjectID, data []byte) error
	// Control exposes the control plane.
	Control() gcs.API
	// NodeID identifies the backing node.
	NodeID() types.NodeID
}

// RefCounted is optionally implemented by Backends wired to the lifetime
// subsystem (node.Node is). When present, every future created by Submit
// or Put is retained on behalf of the caller, and Release drops those
// references; when the cluster-wide count reaches zero the object's bytes
// are reclaimed everywhere. Backends without it keep the original
// semantics: objects live until LRU eviction.
type RefCounted interface {
	RetainObject(id types.ObjectID)
	ReleaseObject(id types.ObjectID)
}

// Followed is one tell of Backend.Follow: the ref at Index is ready
// somewhere, or, with Err set, never will be.
type Followed struct {
	Index int
	Err   error
}

// TaskOwner is optionally implemented by Backends wired to the task
// ownership ledger (node.Node is; DESIGN.md §13). Futures whose producing
// task is owned by this node resolve from the ledger's in-process state
// events and the node's own store: while this node owns a task, its outputs
// can appear nowhere but here, so a Get or Wait on locally-submitted work
// reads no control-plane record. A ref's producing task is the one its ID
// names (types.ObjectID.Producer), so a ref rebuilt from a bare ID waits
// owner-side too; the refs it does not count, a Wait follows on the node's
// dependency table (Backend.Follow). OwnRoot registers a driver root drawn
// at random (NewClient), whose tasks' records may then reach the table in
// the ledger's batched flush, within types.BirthBound, or never if they are
// collected at home. WaitEnds registers one count over the ends of tasks,
// listed once per waited ref (lifetime.TaskLedger.WaitEnds): it returns the
// indexes in tasks of those not owned here or already ended, and an EndWait
// whose C (nil if it registered none) is told once no more than slack of the
// registered refs are unended, and at once when a task leaves this node
// without an end — so a waiter re-checks rather than trusts the tell.
type TaskOwner interface {
	OwnRoot(root types.TaskID)
	WaitEnds(tasks []types.TaskID, slack int) (EndWait, []int)
}

// EndWait is a Wait's registration with its TaskOwner (WaitEnds). Rearm
// counts again after a tell, over the tasks of the listed refs still
// waited on, and returns the indexes of those no longer counted; Stop
// unregisters what has not fired.
type EndWait interface {
	C() <-chan struct{}
	Rearm(tasks []types.TaskID, slack int) (gone []int)
	Stop()
}

// Call describes one task invocation.
//
// Deprecated: Call predates the options pipeline and carries only a subset
// of submission intent (no locality, no placement group). New code should
// use SubmitOpts or the typed Options(...).Remote pipeline; Call remains as
// a thin wrapper so existing programs keep compiling.
type Call struct {
	Function   string
	Args       []types.Arg
	NumReturns int             // 0 means 1
	Resources  types.Resources // nil means {CPU:1}
	MaxRetries int
}

// options converts the legacy Call shape into the canonical TaskOptions.
func (c Call) options() TaskOptions {
	return TaskOptions{
		Resources:  c.Resources,
		NumReturns: c.NumReturns,
		MaxRetries: c.MaxRetries,
	}
}

// DefaultTaskResources is the demand assumed when a Call leaves Resources
// nil, mirroring the paper's prototype (every task occupies one CPU unless
// it declares otherwise).
var DefaultTaskResources = types.CPU(1)

// ErrTaskFailed wraps application-level task failures surfaced through Get.
var ErrTaskFailed = errors.New("core: task failed")

// ErrReclaimed is returned by Get and Wait for a future that came too late:
// every reference to the object was released, its copies were collected,
// and its record and its producer's were retired from the control plane
// (DESIGN.md §17), so there is nothing to fetch and nothing to replay it
// from. A task submitted with such a future as an argument fails with it
// (and with ErrTaskFailed). Submitting the producer again runs it again,
// under the same IDs.
var ErrReclaimed = types.ErrReclaimed

// ErrWaitInvalid marks a structurally invalid Wait call (numReturns out of
// range, duplicate refs) that could otherwise block forever.
var ErrWaitInvalid = errors.New("core: invalid Wait")

// caller is the shared submission state behind Client and TaskContext: the
// owning task identity plus its child-submission counter. The counter is
// what makes child task IDs deterministic under replay (DESIGN.md §4.1).
type caller struct {
	backend Backend
	owner   types.TaskID
	// trace is stamped on every submitted spec so a driver session's whole
	// task tree shares one trace ID (descendants inherit it through
	// TaskContext.Init). Zero = untraced.
	trace uint64
	// job is the caller's tenant job, inherited by child submissions that
	// carry no explicit WithJob (descendants flow through TaskContext.Init
	// like trace). Nil = untenanted.
	job     types.JobID
	counter atomic.Uint64
	puts    atomic.Uint64
	// lender, when non-nil, brackets the blocking operations of the task
	// lent (worker lending). lent is a TaskContext's running task, whose
	// spec the executor shares read-only.
	lender Lender
	lent   *types.TaskSpec
	// groups caches immutable placement-group specs resolved for grouped
	// submissions (PlacementGroupID -> types.PlacementGroupSpec), so only
	// a group's first use pays a control-plane round trip.
	groups sync.Map
}

func (c *caller) enterBlocked() {
	if c.lender != nil {
		c.lender.Lend(c.lent, true)
	}
}

func (c *caller) exitBlocked() {
	if c.lender != nil {
		c.lender.Lend(c.lent, false)
	}
}

// retain records new future references with the lifetime subsystem, if the
// backend has one.
func (c *caller) retain(ids ...types.ObjectID) {
	if rc, ok := c.backend.(RefCounted); ok {
		for _, id := range ids {
			rc.RetainObject(id)
		}
	}
}

// release drops future references. Objects whose cluster-wide count
// reaches zero are garbage-collected; see Client.Release.
func (c *caller) release(refs []ObjectRef) {
	if rc, ok := c.backend.(RefCounted); ok {
		for _, r := range refs {
			if !r.IsNil() {
				rc.ReleaseObject(r.ID)
			}
		}
	}
}

// submit implements task creation (Section 3.1, items 1-3): it derives the
// deterministic task ID, validates the options against the control plane,
// hands the spec to the local scheduler, and returns futures immediately
// without waiting for execution. The futures go in out when it has room
// for them, else in a new slice. A spec is read-only once made, so one
// default demand serves every task that declares none.
func (c *caller) submit(function string, args []types.Arg, o TaskOptions, out []ObjectRef) ([]ObjectRef, error) {
	if o.NumReturns == 0 {
		o.NumReturns = 1
	}
	res := o.Resources
	if res == nil {
		res = DefaultTaskResources
	}
	if !o.Group.IsNil() {
		if err := c.validateGroupOptions(&o, res); err != nil {
			return nil, err
		}
	} else if o.Bundle != 0 {
		return nil, fmt.Errorf("%w: bundle index %d without a placement group", ErrInvalidOptions, o.Bundle)
	}
	job := o.Job
	if job.IsNil() {
		job = c.job // inherit the caller's tenancy, like trace
	}
	if !job.IsNil() {
		if err := c.admitJob(job); err != nil {
			return nil, err
		}
	}
	idx := c.counter.Add(1)
	spec := types.TaskSpec{
		ID:          types.DeriveTaskID(c.owner, idx),
		Function:    function,
		Args:        args,
		NumReturns:  o.NumReturns,
		Resources:   res,
		Parent:      c.owner,
		SubmitIndex: idx,
		MaxRetries:  o.MaxRetries,
		Locality:    o.Locality,
		Group:       o.Group,
		Bundle:      o.Bundle,
		TraceID:     c.trace,
		Job:         job,
		Actor:       o.Actor,
		Origin:      c.backend.NodeID(),
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := c.backend.SubmitTask(spec); err != nil {
		return nil, err
	}
	if len(out) != spec.NumReturns {
		out = make([]ObjectRef, spec.NumReturns)
	}
	for i := range out {
		out[i] = ObjectRef{ID: spec.ReturnID(i), Task: spec.ID}
		c.retain(out[i].ID)
	}
	return out, nil
}

// get implements Section 3.1 item 4: block until the future's value is
// available and return it.
func (c *caller) get(ctx context.Context, ref ObjectRef) ([]byte, error) {
	if ref.IsNil() {
		return nil, fmt.Errorf("core: Get on nil ref")
	}
	if data, ok := tryLocal(c.backend, ref.ID); ok {
		return checkErrPayload(data)
	}
	c.enterBlocked()
	defer c.exitBlocked()
	data, err := c.backend.ResolveObject(ctx, ref.ID)
	if err != nil {
		return nil, err
	}
	return checkErrPayload(data)
}

// checkErrPayload surfaces stored task failures through Get (a failed
// task's return objects hold tagged error payloads; see worker.Executor).
// Gang-scheduling failures carry a recognizable reason prefix so callers
// can match the typed error instead of parsing strings.
func checkErrPayload(data []byte) ([]byte, error) {
	if msg, isErr := codec.AsError(data); isErr {
		if isGroupRemovedPayload(msg) {
			// Matches both sentinels: ErrTaskFailed keeps the documented
			// "any task failure" contract for existing callers, while
			// ErrGroupRemoved identifies the gang-removal class.
			return nil, fmt.Errorf("%w: %w: %s", ErrTaskFailed, ErrGroupRemoved, msg)
		}
		if isJobStoppedPayload(msg) {
			return nil, fmt.Errorf("%w: %w: %s", ErrTaskFailed, ErrJobTerminated, msg)
		}
		if hasReason(msg, types.ReasonReclaimed, "obj-") {
			return nil, fmt.Errorf("%w: %w: %s", ErrTaskFailed, ErrReclaimed, msg)
		}
		return nil, fmt.Errorf("%w: %s", ErrTaskFailed, msg)
	}
	return data, nil
}

// isGroupRemovedPayload matches the exact shape the schedulers store for
// buried group members — reason prefix plus a short group ID — so an
// application error that merely starts with the prefix text is not
// misclassified as a gang removal.
func isGroupRemovedPayload(msg string) bool {
	return hasReason(msg, types.ReasonGroupRemoved, "pg-")
}

// hasReason reports whether msg is exactly reason followed by a short ID
// (its tag and twelve hex digits, and a return's decimal index after a
// dot), the shape the schedulers store.
func hasReason(msg, reason, tag string) bool {
	rest, ok := strings.CutPrefix(msg, reason)
	if !ok {
		return false
	}
	rest, ok = strings.CutPrefix(rest, tag)
	if !ok {
		return false
	}
	rest, index, dotted := strings.Cut(rest, ".")
	if len(rest) != 12 || strings.Trim(rest, "0123456789abcdef") != "" {
		return false
	}
	return !dotted || index != "" && strings.Trim(index, "0123456789") == ""
}

func tryLocal(b Backend, id types.ObjectID) ([]byte, bool) {
	if !b.ObjectLocal(id) {
		return nil, false
	}
	// ResolveObject on a local object returns immediately; reuse it to get
	// the bytes without duplicating store access on the Backend interface.
	data, err := b.ResolveObject(context.Background(), id)
	if err != nil {
		return nil, false
	}
	return data, true
}

// put stores a value directly and returns its future (used for broadcast
// data such as model weights). Put objects have no producing task, so they
// are not reconstructable after failures — same caveat as the prototype.
func (c *caller) put(v any) (ObjectRef, error) {
	data, err := codec.Encode(v)
	if err != nil {
		return ObjectRef{}, err
	}
	id := types.PutObjectID(c.owner, c.puts.Add(1))
	if err := c.backend.PutObject(id, data); err != nil {
		return ObjectRef{}, err
	}
	c.retain(id)
	return ObjectRef{ID: id}, nil
}

// wait implements Section 3.1 item 5: block until numReturns of the given
// futures are complete or the timeout expires, and return the completed and
// uncompleted subsets. Completion means the object is ready anywhere in the
// cluster — wait never forces a transfer, which is what lets developers use
// it to bound latency without paying for stragglers (R1).
func (c *caller) wait(ctx context.Context, refs []ObjectRef, numReturns int, timeout time.Duration) (ready, pending []ObjectRef, err error) {
	if numReturns < 0 || numReturns > len(refs) {
		return nil, nil, fmt.Errorf("%w: numReturns %d out of range [0,%d]", ErrWaitInvalid, numReturns, len(refs))
	}
	// Reject duplicate (and nil) refs up front with a typed error: a
	// repeated ref makes numReturns ambiguous — counting occurrences, one
	// completion can satisfy a wait the caller meant as "two results
	// ready"; counting distinct objects, numReturns can exceed what could
	// ever complete and block forever. Either reading silently does the
	// wrong thing for someone, so the contract is distinct refs only.
	seen := make(map[types.ObjectID]bool, len(refs))
	ids := make([]types.ObjectID, len(refs))
	for i, r := range refs {
		if r.IsNil() {
			return nil, nil, fmt.Errorf("%w: nil ref", ErrWaitInvalid)
		}
		if seen[r.ID] {
			return nil, nil, fmt.Errorf("%w: duplicate ref %v", ErrWaitInvalid, r.ID)
		}
		seen[r.ID] = true
		ids[i] = r.ID
	}
	// One look at the local store first: an owned ref that is ready is here,
	// and so, most often, is most of a window.
	done := make([]bool, len(refs))
	n := c.backend.ObjectsLocal(ids, done)
	if n >= numReturns {
		return split(refs, done)
	}

	var deadline <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}

	c.enterBlocked()
	defer c.exitBlocked()

	// A ref that no ledger here counts for is followed (Backend.Follow): it
	// is told once it is ready anywhere, or with the error that ends it.
	var (
		told  chan Followed // made at the first follow, with room for every ref
		stops []func()
	)
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	follow := func(which []int) {
		if len(which) == 0 {
			return
		}
		if told == nil {
			told = make(chan Followed, len(refs))
		}
		stops = append(stops, c.backend.Follow(ids, which, told))
	}

	// Owner-side futures (DESIGN.md §13): the refs whose producer this
	// node's ledger owns are counted there, under one registration, and
	// read no control-plane record. The executor stores a task's outputs
	// (or error payloads) before its terminal stamp, so once enough of the
	// counted tasks ended, enough of their refs are in the store — unless a
	// tenure moved (spill-away, drain, transfer) or an output went, and
	// those refs are followed instead. slack is how many refs may stay
	// pending once the Wait is satisfied.
	owner, _ := c.backend.(TaskOwner)
	slack := len(refs) - numReturns
	owned := make([]int, 0, len(refs)-n) // the refs the ledger counts for
	tasks := make([]types.TaskID, 0, len(refs)-n)
	var unowned []int
	for i, r := range refs {
		if done[i] {
			continue
		}
		if task := r.ID.Producer(); owner != nil && !task.IsNil() {
			owned, tasks = append(owned, i), append(tasks, task)
		} else {
			unowned = append(unowned, i)
		}
	}
	follow(unowned)
	var ends EndWait
	var wakeC <-chan struct{} // nil until something is counted
	// moved follows the owned refs at gone, indexes in owned, that are not
	// in the store: their tasks left this node, or ended between the
	// store's look and the ledger's. Then it drops them from owned.
	moved := func(gone []int) {
		if len(gone) == 0 {
			return
		}
		n += c.backend.ObjectsLocal(ids, done)
		var left []int
		for _, g := range gone {
			if i := owned[g]; !done[i] {
				left = append(left, i)
			}
			owned[g] = -1
		}
		follow(left)
		owned = slices.DeleteFunc(owned, func(i int) bool { return i < 0 })
	}
	if len(tasks) > 0 {
		var gone []int
		ends, gone = owner.WaitEnds(tasks, slack)
		defer ends.Stop()
		wakeC = ends.C()
		moved(gone)
	}

	for n < numReturns {
		select {
		case f := <-told:
			if f.Err != nil {
				return nil, nil, f.Err
			}
			if !done[f.Index] {
				done[f.Index] = true
				n++
			}
		case <-wakeC:
			// Enough counted tasks ended, or one left: one look at the store,
			// then count again over the owned refs still pending, and follow
			// those whose tasks ended without their output here or left.
			if n += c.backend.ObjectsLocal(ids, done); n < numReturns {
				owned = slices.DeleteFunc(owned, func(i int) bool { return done[i] })
				again := make([]types.TaskID, len(owned)) // tasks stays as registered, for Stop
				for k, i := range owned {
					again[k] = refs[i].ID.Producer()
				}
				moved(ends.Rearm(again, slack))
			}
		case <-deadline:
			return split(refs, done)
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return split(refs, done)
}

// split divides refs into those done marks and the rest.
func split(refs []ObjectRef, done []bool) (ready, pending []ObjectRef, err error) {
	ready = make([]ObjectRef, 0, len(refs))
	for i, r := range refs {
		if done[i] {
			ready = append(ready, r)
		} else {
			pending = append(pending, r)
		}
	}
	return ready, pending, nil
}

// Client is the driver's handle to the cluster: the root of the task tree.
type Client struct {
	caller
}

// NewClient creates a driver client over a backend with a random root task
// identity.
func NewClient(b Backend) *Client {
	var root types.TaskID
	if _, err := rand.Read(root[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	if o, ok := b.(TaskOwner); ok {
		o.OwnRoot(root) // a random root's tasks are new to the control plane
	}
	return NewClientWithRoot(b, root)
}

// NewClientWithRoot creates a driver with a fixed root identity; tests use
// it for deterministic task IDs.
func NewClientWithRoot(b Backend, root types.TaskID) *Client {
	c := &Client{}
	c.backend = b
	c.owner = root
	// The trace ID derives from the root identity so replays and tests get
	// stable trace correlation without a second random draw.
	c.trace = binary.BigEndian.Uint64(root[:8])
	return c
}

// SubmitOpts creates a task with explicit per-call options and immediately
// returns its futures (non-blocking). This is the canonical untyped entry
// point; the typed Options(...).Remote pipeline builds on the same path.
func (cl *Client) SubmitOpts(function string, args []types.Arg, opts ...Option) ([]ObjectRef, error) {
	return cl.submit(function, args, buildOptions(opts), nil)
}

// Submit creates a task and immediately returns its futures (non-blocking).
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (cl *Client) Submit(call Call) ([]ObjectRef, error) {
	return cl.submit(call.Function, call.Args, call.options(), nil)
}

// Submit1 is Submit for the common single-return case.
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (cl *Client) Submit1(call Call) (ObjectRef, error) {
	o := call.options()
	o.NumReturns = 1
	var one [1]ObjectRef
	if _, err := cl.submit(call.Function, call.Args, o, one[:]); err != nil {
		return ObjectRef{}, err
	}
	return one[0], nil
}

// Get blocks until the future completes and returns its encoded bytes.
func (cl *Client) Get(ctx context.Context, ref ObjectRef) ([]byte, error) { return cl.get(ctx, ref) }

// Wait blocks until numReturns futures complete or timeout elapses.
// A negative timeout means wait indefinitely.
func (cl *Client) Wait(ctx context.Context, refs []ObjectRef, numReturns int, timeout time.Duration) (ready, pending []ObjectRef, err error) {
	return cl.wait(ctx, refs, numReturns, timeout)
}

// Put stores a value in the local object store and returns its future.
func (cl *Client) Put(v any) (ObjectRef, error) { return cl.put(v) }

// Release drops the driver's references to the given futures. Once every
// reference in the cluster is gone the lifetime subsystem reclaims the
// objects' bytes on every node, and shortly after retires their records and
// their producers' (DESIGN.md §17). Releasing a future and then using it
// (or a copy of it) races with both: the Get may pay a lineage replay, or
// fail with ErrReclaimed. On backends without lifetime support Release is a
// no-op.
func (cl *Client) Release(refs ...ObjectRef) { cl.release(refs) }

// Backend exposes the underlying backend (examples and tools use it).
func (cl *Client) Backend() Backend { return cl.backend }

// TaskContext is the API handed to executing tasks. It mirrors Client — a
// running task can submit new tasks, get, wait, and put — which is exactly
// requirement R3 (dynamic task creation from within tasks).
type TaskContext struct {
	caller
	ctx context.Context
}

// Lender is told when a task enters (true) or leaves (false) a blocking
// Get or Wait, so the node can lend the task's resources while it waits
// (worker lending), and once more (true) when its function has returned,
// so that its results find them free. spec is the blocked task's.
type Lender interface {
	Lend(spec *types.TaskSpec, blocked bool)
}

// Init sets up tc as the API handle of spec's run, in place: the executor
// passes a zero context that the task's record holds, so the handle costs
// no allocation of its own. The context references *spec, which must not
// change while the task runs. lender may be nil.
func (tc *TaskContext) Init(ctx context.Context, b Backend, spec *types.TaskSpec, lender Lender) {
	tc.ctx = ctx
	tc.backend = b
	tc.owner = spec.ID
	tc.trace = spec.TraceID
	tc.job = spec.Job
	tc.lender, tc.lent = lender, spec
}

// Context returns the execution context (cancelled on node shutdown).
func (tc *TaskContext) Context() context.Context { return tc.ctx }

// Spec returns a copy of the executing task's spec.
func (tc *TaskContext) Spec() types.TaskSpec { return *tc.lent }

// SubmitOpts creates a child task with explicit per-call options
// (non-blocking, R3).
func (tc *TaskContext) SubmitOpts(function string, args []types.Arg, opts ...Option) ([]ObjectRef, error) {
	return tc.submit(function, args, buildOptions(opts), nil)
}

// Submit creates a child task (non-blocking, R3).
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (tc *TaskContext) Submit(call Call) ([]ObjectRef, error) {
	return tc.submit(call.Function, call.Args, call.options(), nil)
}

// Submit1 is Submit for the single-return case.
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (tc *TaskContext) Submit1(call Call) (ObjectRef, error) {
	o := call.options()
	o.NumReturns = 1
	var one [1]ObjectRef
	if _, err := tc.submit(call.Function, call.Args, o, one[:]); err != nil {
		return ObjectRef{}, err
	}
	return one[0], nil
}

// Get blocks on a future. While blocked, the task's resources are released
// back to the local scheduler so nested tasks cannot deadlock the node.
func (tc *TaskContext) Get(ref ObjectRef) ([]byte, error) { return tc.get(tc.ctx, ref) }

// Wait is the straggler-tolerant completion primitive (Section 3.1 item 5).
func (tc *TaskContext) Wait(refs []ObjectRef, numReturns int, timeout time.Duration) (ready, pending []ObjectRef, err error) {
	return tc.wait(tc.ctx, refs, numReturns, timeout)
}

// Put stores a value and returns its future.
func (tc *TaskContext) Put(v any) (ObjectRef, error) { return tc.put(v) }

// Release drops this task's references to the given futures (see
// Client.Release). Tasks that create large intermediates and consume them
// before returning can release them to bound the cluster's working set.
func (tc *TaskContext) Release(refs ...ObjectRef) { tc.release(refs) }
