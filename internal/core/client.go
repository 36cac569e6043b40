package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
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
	// fetching from peers and triggering lineage reconstruction as needed.
	ResolveObject(ctx context.Context, id types.ObjectID) ([]byte, error)
	// ObjectLocal reports whether the object is already in the local store.
	ObjectLocal(id types.ObjectID) bool
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

// TaskOwner is optionally implemented by Backends wired to the task
// ownership ledger (node.Node is; DESIGN.md §13). Futures whose producing
// task is owned by this node resolve from the ledger's in-process state
// events and the node's own store — a Get or Wait on locally-submitted work
// costs zero control-plane calls. OwnsTask reports current local authority;
// the ledger holds a task born here before the table does. OwnRoot
// registers a driver root drawn at random (NewClient), whose tasks' records
// may then reach the table in the ledger's batched flush; LandBirths writes
// the records of tasks that the ledger still owes, and TaskFlushes counts
// its completed flushes.
// NotifyTaskEnd sends a task's ID on ch when it reaches a terminal state OR
// local authority is dropped (transfer) — at once if that already happened
// — so waiters re-check rather than trust the wake blindly; ch needs room
// for one event per id, and StopNotifyTaskEnd unregisters what has not
// fired. ResolveTaskOutput is ResolveObject for a return of task, waiting
// owner-side while the task is owned here.
type TaskOwner interface {
	OwnsTask(id types.TaskID) bool
	OwnRoot(root types.TaskID)
	LandBirths(tasks ...types.TaskID)
	TaskFlushes() uint64
	NotifyTaskEnd(ch chan<- types.TaskID, ids ...types.TaskID)
	StopNotifyTaskEnd(ch chan<- types.TaskID, ids ...types.TaskID)
	ResolveTaskOutput(ctx context.Context, task types.TaskID, id types.ObjectID) ([]byte, error)
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
	// NewTaskContext). Zero = untraced.
	trace uint64
	// job is the caller's tenant job, inherited by child submissions that
	// carry no explicit WithJob (descendants flow through NewTaskContext
	// like trace). Nil = untenanted.
	job     types.JobID
	counter atomic.Uint64
	puts    atomic.Uint64
	// blockHook, when non-nil, brackets blocking operations so the node can
	// release the task's resources while it waits (worker lending).
	blockHook func(blocked bool)
	// groups caches immutable placement-group specs resolved for grouped
	// submissions (PlacementGroupID -> types.PlacementGroupSpec), so only
	// a group's first use pays a control-plane round trip.
	groups sync.Map
}

func (c *caller) enterBlocked() {
	if c.blockHook != nil {
		c.blockHook(true)
	}
}

func (c *caller) exitBlocked() {
	if c.blockHook != nil {
		c.blockHook(false)
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
// without waiting for execution.
func (c *caller) submit(function string, args []types.Arg, o TaskOptions) ([]ObjectRef, error) {
	if o.NumReturns == 0 {
		o.NumReturns = 1
	}
	res := o.Resources
	if res == nil {
		res = DefaultTaskResources.Clone()
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
	// Derived once here, the return IDs ride every copy of the spec: the
	// birth's producer edges and the executor's Put read them.
	rets := spec.CacheReturns()
	if err := c.backend.SubmitTask(spec); err != nil {
		return nil, err
	}
	refs := make([]ObjectRef, o.NumReturns)
	for i, id := range rets {
		refs[i] = ObjectRef{ID: id, Task: spec.ID}
		c.retain(id)
	}
	return refs, nil
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
	var data []byte
	var err error
	if owner, ok := c.backend.(TaskOwner); ok && !ref.Task.IsNil() {
		data, err = owner.ResolveTaskOutput(ctx, ref.Task, ref.ID)
	} else {
		data, err = c.backend.ResolveObject(ctx, ref.ID)
	}
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
// (its tag and twelve hex digits), the shape the schedulers store.
func hasReason(msg, reason, tag string) bool {
	rest, ok := strings.CutPrefix(msg, reason)
	if !ok {
		return false
	}
	rest, ok = strings.CutPrefix(rest, tag)
	if !ok || len(rest) != 12 {
		return false
	}
	for _, c := range rest {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
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
	for _, r := range refs {
		if r.IsNil() {
			return nil, nil, fmt.Errorf("%w: nil ref", ErrWaitInvalid)
		}
		if seen[r.ID] {
			return nil, nil, fmt.Errorf("%w: duplicate ref %v", ErrWaitInvalid, r.ID)
		}
		seen[r.ID] = true
	}
	ctrl := c.backend.Control()

	var deadline <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}

	c.enterBlocked()
	defer c.exitBlocked()

	// unknown collects, per countReady, the refs the object table has no
	// record of: the ones that may have been retired. suspects holds the
	// owner's flush count when each was first found in neither table.
	var unknown []ObjectRef
	var suspects map[types.ObjectID]uint64
	isReady := func(r ObjectRef) bool {
		if c.backend.ObjectLocal(r.ID) {
			return true
		}
		info, ok := ctrl.GetObject(r.ID)
		if !ok {
			unknown = append(unknown, r)
		}
		return ok && info.State == types.ObjectReady
	}

	done := make(map[types.ObjectID]bool, len(refs))
	countReady := func() int {
		n := 0
		unknown = unknown[:0]
		for _, r := range refs {
			if done[r.ID] {
				n++
				continue
			}
			if isReady(r) {
				done[r.ID] = true
				n++
			}
		}
		return n
	}

	// Subscribe before the first scan so no ready transition is missed.
	// Owner-side futures (DESIGN.md §13): a ref whose producing task this
	// node's ledger owns needs NO control-plane subscription — the
	// executor stores outputs (or error payloads) strictly before the
	// terminal transition, so the ledger's terminal event implies the
	// object is resolvable locally. Those refs wake from the ledger's
	// in-process events; only refs produced elsewhere (or by Puts) pay the
	// per-ref subscription stream. A ledger wake is advisory (it also fires
	// on ownership transfer), so it triggers a re-check, not a blind
	// completion.
	owner, _ := c.backend.(TaskOwner)
	subs := make([]gcs.Sub, 0, len(refs))
	defer func() {
		for _, s := range subs {
			s.Close()
		}
	}()
	// Each ready channel is per-object, so its first message identifies
	// exactly which ref completed — the event marks that one ref done
	// instead of re-scanning (and re-fetching) every pending object, which
	// made a window of W waits cost O(W²) object-table reads.
	readyC := make(chan types.ObjectID, len(refs))
	subscribe := func(id types.ObjectID) {
		sub := ctrl.Subscribe(gcs.TopicObjectReady, id)
		subs = append(subs, sub)
		go func(s gcs.Sub, id types.ObjectID) {
			if _, ok := <-s.C(); ok {
				readyC <- id // buffered one slot per ref; never blocks
			}
		}(sub, id)
	}
	// owned maps each task this node owns to its refs still waited on; all
	// of them wake through one channel the ledger sends the task's ID on.
	owned := make(map[types.TaskID][]ObjectRef)
	for _, r := range refs {
		if done[r.ID] {
			continue // already ready on the first scan: no wake source needed
		}
		if owner != nil && !r.Task.IsNil() && owner.OwnsTask(r.Task) {
			owned[r.Task] = append(owned[r.Task], r)
			continue
		}
		subscribe(r.ID)
	}
	var wakeC chan types.TaskID
	if len(owned) > 0 {
		tasks := make([]types.TaskID, 0, len(owned))
		for task := range owned {
			tasks = append(tasks, task)
		}
		wakeC = make(chan types.TaskID, len(tasks)) // one slot per task; never blocks the ledger
		owner.NotifyTaskEnd(wakeC, tasks...)
		defer owner.StopNotifyTaskEnd(wakeC, tasks...)
	}

	// The poll is a safety net for missed edges only — completions arrive
	// through owner wakes and per-object subscriptions, so each tick's
	// full rescan (an object-table read per unready ref) should be rare,
	// not the steady-state cadence of every waiting driver.
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	n := countReady()
	for n < numReturns {
		select {
		case id := <-readyC:
			if !done[id] {
				done[id] = true
				n++
			}
		case task := <-wakeC:
			// Ledger event for one owned task: re-check its refs only, never
			// trust blindly — the event also fires on ownership transfer. A
			// full countReady() here cost O(W) object-table reads per wake,
			// O(W²) per window. If the task terminated, the executor already
			// stored the outputs locally; if ownership moved instead, fall
			// back to the per-object stream (subscribe-then-recheck, same
			// no-missed-edge order as the setup loop).
			for _, r := range owned[task] {
				if done[r.ID] {
					continue
				}
				if !isReady(r) {
					subscribe(r.ID)
					if !isReady(r) {
						continue
					}
				}
				done[r.ID] = true
				n++
			}
		case <-poll.C:
			n = countReady() // safety net against missed edges
			if n < numReturns {
				if suspects == nil {
					suspects = make(map[types.ObjectID]uint64)
				}
				if err := reclaimedAmong(ctrl, owner, unknown, suspects); err != nil {
					return nil, nil, err
				}
			}
		case <-deadline:
			goto out
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
out:
	var born []types.TaskID
	for _, r := range refs {
		if done[r.ID] {
			ready = append(ready, r)
			if owner != nil && !r.Task.IsNil() {
				born = append(born, r.Task)
			}
		} else {
			pending = append(pending, r)
		}
	}
	if len(born) > 0 {
		// What Wait reports ready the caller may hand anywhere, so the
		// records of its tasks born here go to the table first.
		owner.LandBirths(born...)
	}
	return ready, pending, nil
}

// reclaimedAmong reports ErrReclaimed if one of refs — futures the object
// table has no record of — can never complete because its records were
// retired (DESIGN.md §17). Absence alone is not proof: a task born on this
// node reaches the table in its owner's batched flush, and until then its
// owner's ledger is the only record of it and of its returns. So a ref
// counts as retired only when the owner does not hold its task and it is
// absent from both tables on two reads with a whole flush of the owner's
// ledger between them (owner nil: on two polls); suspects carries the first
// reads from poll to poll. A Put's location is published before its ref
// exists, and a ref that reached this node from elsewhere had its birth
// flushed before it left its owner.
func reclaimedAmong(ctrl gcs.API, owner TaskOwner, refs []ObjectRef, suspects map[types.ObjectID]uint64) error {
	var flushes uint64
	if owner != nil {
		flushes = owner.TaskFlushes()
	}
	for _, r := range refs {
		if !r.Task.IsNil() {
			if owner != nil && owner.OwnsTask(r.Task) {
				continue
			}
			if _, ok := ctrl.GetTask(r.Task); ok {
				continue
			}
		}
		if p, ok := ctrl.(gcs.Pinger); ok && !p.Ping() {
			return nil // an unreachable shard reads as absent
		}
		if _, ok := ctrl.GetObject(r.ID); ok {
			continue
		}
		first, seen := suspects[r.ID]
		if !seen {
			suspects[r.ID] = flushes
			continue
		}
		if owner == nil || flushes >= first+2 {
			return fmt.Errorf("%w: %v", ErrReclaimed, r.ID)
		}
	}
	return nil
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
	return cl.submit(function, args, buildOptions(opts))
}

// Submit creates a task and immediately returns its futures (non-blocking).
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (cl *Client) Submit(call Call) ([]ObjectRef, error) {
	return cl.submit(call.Function, call.Args, call.options())
}

// Submit1 is Submit for the common single-return case.
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (cl *Client) Submit1(call Call) (ObjectRef, error) {
	o := call.options()
	o.NumReturns = 1
	refs, err := cl.submit(call.Function, call.Args, o)
	if err != nil {
		return ObjectRef{}, err
	}
	return refs[0], nil
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
	spec types.TaskSpec
	ctx  context.Context
}

// NewTaskContext is used by the executor to set up a task's API handle.
// blockHook may be nil.
func NewTaskContext(ctx context.Context, b Backend, spec types.TaskSpec, blockHook func(bool)) *TaskContext {
	tc := &TaskContext{spec: spec, ctx: ctx}
	tc.backend = b
	tc.owner = spec.ID
	tc.trace = spec.TraceID
	tc.job = spec.Job
	tc.blockHook = blockHook
	return tc
}

// Context returns the execution context (cancelled on node shutdown).
func (tc *TaskContext) Context() context.Context { return tc.ctx }

// Spec returns the executing task's spec.
func (tc *TaskContext) Spec() types.TaskSpec { return tc.spec }

// SubmitOpts creates a child task with explicit per-call options
// (non-blocking, R3).
func (tc *TaskContext) SubmitOpts(function string, args []types.Arg, opts ...Option) ([]ObjectRef, error) {
	return tc.submit(function, args, buildOptions(opts))
}

// Submit creates a child task (non-blocking, R3).
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (tc *TaskContext) Submit(call Call) ([]ObjectRef, error) {
	return tc.submit(call.Function, call.Args, call.options())
}

// Submit1 is Submit for the single-return case.
//
// Deprecated: use SubmitOpts or the typed Options(...).Remote pipeline.
func (tc *TaskContext) Submit1(call Call) (ObjectRef, error) {
	o := call.options()
	o.NumReturns = 1
	refs, err := tc.submit(call.Function, call.Args, o)
	if err != nil {
		return ObjectRef{}, err
	}
	return refs[0], nil
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
