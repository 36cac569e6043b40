package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/gcs"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// ExecFunc runs one task whose dependencies have all been resolved to local
// bytes. The local scheduler invokes it on an executor goroutine after
// acquiring the task's resources; the goroutine runs one task at a time and,
// once ExecFunc returns, may be handed the next one.
type ExecFunc func(ctx context.Context, spec types.TaskSpec, args [][]byte)

// Fetcher pulls a remote object into the local store. lifetime.PullManager
// is the production implementation (chunked, with per-peer backpressure).
type Fetcher interface {
	// FetchObject pulls the object info describes from info.Locations. It
	// takes the whole record because the caller has just read it, and the
	// pull needs its size and spill state too.
	FetchObject(ctx context.Context, info types.ObjectInfo) error
}

// RefLedger records task-argument borrows: while a task is queued or
// running here, its dependency objects hold an extra reference so the
// lifetime GC cannot reclaim them out from under the dispatcher.
// lifetime.Tracker is the production implementation. Retain and Release
// are local ledger appends; Flush pushes the ledger to the control plane
// and is called on the handoff edges where another node's release must
// not be able to outrun this node's retain (enqueue before the QUEUED
// stamp, the spill bridge before the respill publish).
type RefLedger interface {
	Retain(ids ...types.ObjectID)
	Release(ids ...types.ObjectID)
	Flush() bool
}

// TaskLedger is the owner side of task-state authority (DESIGN.md §13):
// the node that submits (or claims) a task stamps every lifecycle
// transition into an in-process ledger, flushed to the GCS task table as
// batched sequenced deltas. lifetime.TaskLedger is the production
// implementation. Adopt seeds a tenure (after the one synchronous AddTask
// or ClaimTask that establishes it), Transition stamps a state change
// without a control-plane round trip, EnsureLineage records return-object
// producer edges and PinLineage the record's hold on its by-reference
// arguments' records to ride the same flush, Disown drops local authority
// when the task leaves this node, and Flush forces the happens-before
// edge on every handoff another node may act on.
type TaskLedger interface {
	Adopt(id types.TaskID, baseSeq uint64, status types.TaskStatus)
	Transition(id types.TaskID, status types.TaskStatus, worker types.WorkerID, errMsg string) bool
	EnsureLineage(producer types.TaskID, returns ...types.ObjectID)
	PinLineage(task types.TaskID, args ...types.ObjectID)
	Disown(id types.TaskID)
	Owns(id types.TaskID) bool
	Flush() bool
	// FlushTask forces the happens-before edge for ONE task's handoff
	// without draining the whole ledger inline on the spill path.
	FlushTask(id types.TaskID)
}

// ErrStopped is returned for submissions to a stopped scheduler.
var ErrStopped = errors.New("scheduler: stopped")

// ErrDraining is returned for global-scheduler assignments to a draining
// node (DESIGN.md §10): the admission fence of the drain protocol. The
// global scheduler parks the task and retries against a node that is still
// Active; locally-born tasks are never refused — they spill to the global
// queue instead, so a driver attached to a draining node keeps working.
var ErrDraining = errors.New("scheduler: node draining")

// ErrJobFenced is returned for submissions attributed to a job that is
// stopping or stopped (DESIGN.md §14): the local arm of the reclaim fence.
// It covers the races the global scheduler's dispatch fence cannot see —
// an assignment already in flight when the job stopped, and lineage
// reconstruction resubmitting a buried tenant's task. It wraps the typed
// jobs.ErrJobTerminated sentinel so the refusal stays matchable wherever
// it surfaces — in particular through a blocked Get whose object went
// Lost in the reclaim race and whose reconstruction the fence refused.
var ErrJobFenced = fmt.Errorf("scheduler: %w", jobs.ErrJobTerminated)

// Spill thresholds (LocalConfig.SpillThreshold).
const (
	// SpillNever disables spilling: single-node clusters.
	SpillNever = -1
	// SpillAlways forwards every locally-born task to the global scheduler:
	// the "central-only" ablation of experiment E8.
	SpillAlways = 0
)

// LocalConfig configures a Local scheduler.
type LocalConfig struct {
	Node  types.NodeID
	Total types.Resources
	Ctrl  gcs.API
	Store *objectstore.Store
	// Fetcher pulls remote dependencies; nil disables cross-node fetch.
	Fetcher Fetcher
	// Refs records argument borrows for the lifetime subsystem; nil
	// disables borrow tracking.
	Refs RefLedger
	// Ledger is the owner-side task-state ledger (DESIGN.md §13), the one
	// writer of task state on this node. Required.
	Ledger TaskLedger
	// Exec runs ready tasks (assigned after construction by the node).
	Exec ExecFunc
	// Recon asks the fault-tolerance layer to make an object — lost, or
	// pending on a producer stranded on a dead node — resolvable again by
	// lineage replay; task, when known, is the task it is a return of.
	// fault.Reconstructor.RequestReturn; nil disables reconstruction.
	Recon func(id types.ObjectID, task types.TaskID) error
	// SpillThreshold: locally-born tasks spill to the global scheduler when
	// the runnable backlog reaches this length. SpillNever / SpillAlways
	// select the extremes.
	SpillThreshold int
	// Metrics, when set, records queue depths, task-flow counters, and the
	// dispatch-latency histogram. Nil disables instrumentation.
	Metrics *metrics.Registry
	// JobFence, when set, reports whether a job is stopping or stopped;
	// submissions under such a job are refused with ErrJobFenced. Nil
	// disables the fence (single-tenant deployments).
	JobFence func(types.JobID) bool
}

// queuedTask is a task whose dependencies are all local, awaiting
// resources.
type queuedTask struct {
	spec types.TaskSpec
	// enqueuedAt feeds the dispatch-latency histogram (runnable → resources
	// granted). Wall clock, read only as a difference.
	enqueuedAt time.Time
}

// waitingTask is a task in the waiting set: one with unresolved
// dependencies, or one whose QUEUED stamp is not in yet. It becomes runnable
// once both are done, whichever comes last.
type waitingTask struct {
	spec    types.TaskSpec
	missing map[types.ObjectID]bool
	queued  bool
}

// parkedObj is one row of the dependency table: the tasks parked on one
// missing object, and the cancel of its one resolver. The row goes, and the
// resolver stops polling and fetching, once no parked task needs the object.
type parkedObj struct {
	tasks  map[types.TaskID]*waitingTask
	cancel context.CancelFunc
}

// The resolve loop's periods (DESIGN.md §4.2): a missed object-ready edge
// is noticed within pollPeriod, and a pending object's producer is probed
// for a stranded task every strandedPeriod wakeups (≤ 200 ms), starting one
// period in, so a healthy producer costs no probe. fetchTimeout bounds one
// pull of the object: a pull cut short starts again from its first byte, so
// the bound must outlast the largest transfer, not a poll period.
const (
	pollPeriod     = 10 * time.Millisecond
	strandedPeriod = 20
	fetchTimeout   = 30 * time.Second
)

// maxIdleExecutors caps the executor goroutines parked between tasks; one
// that finds the cap reached exits instead. A parked executor costs its
// stack, as the tasks it ran grew it (a few KiB). 64 is four times the
// widest CPU pool a node is given here (16 slots), which leaves room for
// tasks blocked in Get. A wider burst of fractional-CPU tasks starts
// goroutines for its excess, as every task once did.
const maxIdleExecutors = 64

// Local is the per-node scheduler: the first stop for every task born on
// this node (bottom-up scheduling). Tasks become runnable when their
// dependency objects are resident in the node's object store, are admitted
// when their resource demand fits, and spill to the global scheduler when
// the node is overloaded or the task is locally infeasible.
type Local struct {
	cfg LocalConfig
	res *resourcePool
	// stopCtx is the scheduler's lifetime: cancelled once, in Stop. Every
	// dispatched task runs under it, and every background wait selects on it.
	stopCtx    context.Context
	stopCancel context.CancelFunc

	mu       sync.Mutex
	runnable []*queuedTask
	waiting  map[types.TaskID]*waitingTask
	parked   map[types.ObjectID]*parkedObj // the dependency table: waiting, by object
	bundles  map[bundleKey]*resourcePool   // gang reservations held here
	// holding maps a dispatched task to the pool instance it acquired its
	// resources from. Releases must go through this exact instance: a
	// bundle released and re-reserved creates a NEW pool under the same
	// key, and a key-resolved release from a task admitted against the old
	// pool would inflate the new pool's books above its reservation.
	// (Detach forwarding routes releases into dead pools to the general
	// pool, so the captured instance is always safe to release into.)
	holding map[types.TaskID]*resourcePool
	// started gates admission: tasks submitted before Start (the node wires
	// Exec in between) queue, and Start dispatches them.
	started bool
	stopped bool
	// idle is the stack of parked executors, each waiting on its own
	// channel for the next task: dispatch pops the most recently parked, the
	// one whose stack and caches are warmest. Stop closes what is left.
	idle []chan types.TaskSpec

	wg sync.WaitGroup
	// execs counts live executor goroutines, parked or running: Stop
	// returns once they have all exited.
	execs sync.WaitGroup

	// draining is the admission fence (DESIGN.md §10): while set, placed
	// assignments are refused with ErrDraining, locally-born tasks spill to
	// the global queue, and retry/re-enqueue paths respill instead of
	// re-queueing here.
	draining atomic.Bool

	// Counters for heartbeats, dashboards, and benchmarks.
	submitted  atomic.Int64
	spilled    atomic.Int64
	dispatched atomic.Int64

	// obs holds pre-resolved instruments (nil-safe; see LocalConfig).
	obs schedObs
}

// schedObs bundles the scheduler's instruments so hot paths touch
// pre-resolved pointers, never the registry.
type schedObs struct {
	submitted  *metrics.Counter
	spilled    *metrics.Counter
	dispatched *metrics.Counter
	// parked counts tasks entering waiting: admitted with an argument not
	// yet in the local store.
	parked     *metrics.Counter
	dispatchNs *metrics.Histogram
	// executors counts executor goroutines started (handOff found none
	// parked).
	executors *metrics.Counter
}

// NewLocal builds a local scheduler; call Start before submitting.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.Ledger == nil {
		panic("scheduler: LocalConfig.Ledger is required")
	}
	l := &Local{
		cfg:     cfg,
		res:     newResourcePool(cfg.Total),
		waiting: make(map[types.TaskID]*waitingTask),
		parked:  make(map[types.ObjectID]*parkedObj),
		holding: make(map[types.TaskID]*resourcePool),
	}
	l.stopCtx, l.stopCancel = context.WithCancel(context.Background())
	cfg.Store.SetArrivalHook(l.arrived)
	l.obs = schedObs{
		submitted:  cfg.Metrics.Counter("scheduler.tasks.submitted"),
		spilled:    cfg.Metrics.Counter("scheduler.tasks.spilled"),
		dispatched: cfg.Metrics.Counter("scheduler.tasks.dispatched"),
		parked:     cfg.Metrics.Counter("scheduler.tasks.parked"),
		dispatchNs: cfg.Metrics.Histogram("scheduler.dispatch.latency.ns"),
		executors:  cfg.Metrics.Counter("scheduler.executors.started"),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("scheduler.queue.depth", func() int64 { return int64(l.QueueLen()) })
		cfg.Metrics.GaugeFunc("scheduler.waiting.depth", func() int64 { return int64(l.WaitingLen()) })
		cfg.Metrics.GaugeFunc("scheduler.waiting.objects", func() int64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return int64(len(l.parked))
		})
		cfg.Metrics.GaugeFunc("scheduler.executors.idle", func() int64 { return int64(l.idleExecutors()) })
	}
	return l
}

// Start opens admission and dispatches whatever was submitted before it.
// There is no dispatcher goroutine: from here on, every event that can make
// a task admissible — a submission, a dependency landing, a task or a
// reservation returning resources — dispatches on the goroutine it happens
// on (dispatchReady).
func (l *Local) Start() {
	l.mu.Lock()
	l.started = true
	l.mu.Unlock()
	l.dispatchReady()
}

// Stop halts dispatching and abandons queued work (node shutdown). Every
// abandoned task's enqueue-time argument borrows are returned through the
// ledger and flushed, so a standalone scheduler Stop leaves refcounts
// exactly where they would be had the tasks never been enqueued — without
// this, queued tasks' dependencies stayed retained forever and the
// cluster GC could never reclaim them. Tasks already dispatched are not
// touched: their context is cancelled, runTask's deferred release settles
// them, and wg.Wait below lets them finish doing so. A dispatch racing Stop
// either admitted its task before the stopped flag went up — then wg already
// counts it (admitOne) and Stop waits for it — or admits nothing. Once no
// task runs, the parked executors are closed, an executor still on its way
// to park sees the flag and exits instead, and Stop waits for them all.
func (l *Local) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	var abandoned []types.TaskSpec
	for _, t := range l.runnable {
		abandoned = append(abandoned, t.spec)
	}
	l.runnable = nil
	for _, w := range l.waiting {
		abandoned = append(abandoned, w.spec)
		l.unparkLocked(w)
	}
	l.mu.Unlock()
	l.stopCancel()
	if l.cfg.Refs != nil && len(abandoned) > 0 {
		for _, spec := range abandoned {
			l.cfg.Refs.Release(spec.Deps()...)
		}
		l.cfg.Refs.Flush()
	}
	l.wg.Wait()
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.mu.Unlock()
	for _, next := range idle {
		close(next)
	}
	l.execs.Wait()
}

// idleExecutors reports how many executor goroutines are parked waiting for
// a task.
func (l *Local) idleExecutors() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}

// QueueLen reports the runnable backlog (heartbeat load signal).
func (l *Local) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.runnable)
}

// WaitingLen reports tasks blocked on dependencies.
func (l *Local) WaitingLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiting)
}

// Stats returns (submitted, spilled, dispatched) counters.
func (l *Local) Stats() (int64, int64, int64) {
	return l.submitted.Load(), l.spilled.Load(), l.dispatched.Load()
}

// Inlined is always 0: every admitted task reaches its worker through
// dispatchReady, and no task runs on the goroutine that submitted it. It
// stays only because the repo benchmark reports it as
// scheduler.inlined_per_op.
func (l *Local) Inlined() int64 { return 0 }

// Available snapshots the resource pool (heartbeat load signal).
func (l *Local) Available() types.Resources {
	_, avail := l.res.snapshot()
	return avail
}

// ReleaseFor lends a blocked task's resources back to the pool it holds
// them from — its bundle reservation for placement-group members, the
// general pool otherwise (worker lending; see worker.Executor). The lend
// clears the task's pool binding; ReacquireFor re-binds to whatever pool
// it reacquires from, which may legitimately differ after a group
// rollback or re-reservation.
func (l *Local) ReleaseFor(spec types.TaskSpec) {
	l.releaseHeld(spec)
	l.dispatchReady()
}

// ReacquireFor blocks until the lent resources are regained. The wait is
// re-resolved periodically (and immediately on bundle-pool detach): a
// member task parked on the general pool while its bundle was away would
// otherwise never notice the bundle returning to this node — re-carving
// the very capacity the task is waiting for out of the pool it waits on.
func (l *Local) ReacquireFor(spec types.TaskSpec) {
	const reResolve = 100 * time.Millisecond
	for {
		timeout := time.Duration(0)
		if spec.InGroup() {
			timeout = reResolve
		}
		pool := l.poolFor(spec)
		if pool.acquireBlocking(spec.Resources, l.stopCtx.Done(), timeout) {
			l.bindHeld(spec.ID, pool)
			return
		}
		if l.stopCtx.Err() != nil {
			return
		}
		// pool detached or re-resolve tick: retry against the current pool
	}
}

// Submit is the entry point for tasks born on this node (placed=false) and
// for tasks assigned by the global scheduler (placed=true). It implements
// the spillover decision of Section 3.2.2.
func (l *Local) Submit(spec types.TaskSpec, placed bool) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return ErrStopped
	}
	backlog := len(l.runnable)
	l.mu.Unlock()
	if !spec.Job.IsNil() && l.cfg.JobFence != nil && l.cfg.JobFence(spec.Job) {
		// The job reclaim fence (DESIGN.md §14). Refusing before the
		// ownership claim keeps the record PENDING, where the reclaim pass
		// buries it; admitting would resurrect work the stop already swept.
		return ErrJobFenced
	}
	l.submitted.Add(1)
	l.obs.submitted.Inc()

	fresh := l.record(spec, placed)
	if placed {
		// A draining node admits nothing: refuse before the ownership claim
		// so the global scheduler parks the task and re-places it on a node
		// that is still Active (the task stays PENDING, unowned).
		if l.draining.Load() {
			return ErrDraining
		}
		// A global-scheduler assignment. Several global schedulers may each
		// place the same spilled task ("one or more global schedulers",
		// Section 3.2); the QUEUED claim below makes exactly one
		// destination own it. The claim also opens this node's ownership
		// tenure: the returned sequence is the fence base every ledger delta
		// for this task must exceed.
		seq, ok := l.cfg.Ctrl.ClaimTask(spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, l.cfg.Node)
		if !ok {
			return nil
		}
		l.cfg.Ledger.Adopt(spec.ID, seq, types.TaskQueued)
		l.enqueue(spec)
		return nil
	}
	if !fresh && !l.shouldRerun(spec) {
		// Already known to the control plane: either in flight elsewhere or
		// finished with intact outputs (replayed submission, results
		// reusable outright). Only the CAS winner re-runs.
		return nil
	}

	// Grouped tasks run only where their bundle reservation lives: born on
	// the holder they enqueue directly, anywhere else they spill so the
	// gang-aware global scheduler routes them (Section 3.2.2's spillover,
	// reused as the placement-group routing fabric). A soft locality hint
	// naming another node spills for the same reason — the hint is only
	// meaningful with the global view.
	if spec.InGroup() {
		if l.hasBundle(spec.Group, spec.Bundle) && !l.draining.Load() {
			l.enqueue(spec)
		} else {
			l.spilled.Add(1)
			l.obs.spilled.Inc()
			l.bridgeSpill(spec)
			l.cfg.Ctrl.PublishSpill(spec)
		}
		return nil
	}
	localityElsewhere := !spec.Locality.IsNil() && spec.Locality != l.cfg.Node
	infeasible := !spec.Resources.FeasibleOn(l.cfg.Total)
	overloaded := l.cfg.SpillThreshold >= 0 && backlog >= l.cfg.SpillThreshold
	if infeasible || overloaded || localityElsewhere || l.draining.Load() {
		l.spilled.Add(1)
		l.obs.spilled.Inc()
		l.bridgeSpill(spec)
		l.cfg.Ctrl.PublishSpill(spec)
		return nil
	}
	l.enqueue(spec)
	return nil
}

// bridgeSpill holds a borrow on a spilled task's dependencies while the
// task travels through the global spill queue: without it there is a
// window — publish until the destination node's enqueue — in which the
// task holds no references and a driver Release could let the GC reclaim
// its arguments. The bridge drops once the task reaches SCHEDULED (the
// destination's enqueue-time borrow is in place strictly before that
// transition) or a terminal state; an unplaceable task keeps its bridge,
// which is the conservative direction (leak, never lose a live argument).
func (l *Local) bridgeSpill(spec types.TaskSpec) {
	// Flush-before-handoff for task state: the spilled task's lineage
	// ensures and latest stamped state must be in the follower table before
	// another node can act on the spill, and local authority drops — whoever
	// claims the task next owns its lifecycle. Only THIS task's unflushed
	// state matters for the handoff; a full ledger flush here would
	// serialize every spill behind the whole dirty set (a per-task sync
	// round trip on the submit path).
	l.cfg.Ledger.FlushTask(spec.ID)
	l.cfg.Ledger.Disown(spec.ID)
	if l.cfg.Refs == nil {
		return
	}
	deps := spec.Deps()
	if len(deps) == 0 {
		return
	}
	l.cfg.Refs.Retain(deps...)
	// The bridge borrow must be in the control plane's count before the
	// caller publishes the respill: the moment the spill is visible, the
	// driver (or a previous holder) may release, and a pending-only retain
	// would let that release race the count to zero.
	l.cfg.Refs.Flush()
	l.wg.Add(1)
	go l.releaseBridge(spec.ID, deps)
}

func (l *Local) releaseBridge(task types.TaskID, deps []types.ObjectID) {
	defer l.wg.Done()
	sub := l.cfg.Ctrl.Subscribe(gcs.TopicTaskStatus, task)
	defer sub.Close()
	poll := time.NewTicker(pollPeriod)
	defer poll.Stop()
	for {
		if st, ok := l.cfg.Ctrl.GetTask(task); ok {
			switch st.Status {
			case types.TaskScheduled, types.TaskRunning, types.TaskFinished, types.TaskLost, types.TaskFailed:
				l.cfg.Refs.Release(deps...)
				return
			}
		}
		select {
		case <-sub.C():
		case <-poll.C:
		case <-l.stopCtx.Done():
			// Node stopping mid-bridge: keep the borrow rather than expose
			// a task still parked in the queue. Node.Shutdown's tracker
			// ReleaseAll settles the count.
			return
		}
	}
}

// Enqueue bypasses the duplicate-submission check and spill decision; the
// executor's retry path uses it (the task's status was already reset to
// PENDING by the retry bookkeeping, so the dedupe logic would drop it).
func (l *Local) Enqueue(spec types.TaskSpec) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return ErrStopped
	}
	l.mu.Unlock()
	l.enqueue(spec)
	return nil
}

// SetDraining flips the admission fence (DESIGN.md §10). Setting it does
// not evict already-queued work — call DrainBacklog for that; clearing it
// (drain rollback) lets the node admit again.
func (l *Local) SetDraining(d bool) { l.draining.Store(d) }

// Draining reports whether the admission fence is up.
func (l *Local) Draining() bool { return l.draining.Load() }

// Busy reports how many tasks this scheduler still owns in any stage:
// runnable, waiting on dependencies, or dispatched with resources held.
// A draining node quiesces when DrainBacklog has evicted the queues and
// Busy reaches zero (every dispatched task released its resources).
func (l *Local) Busy() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.runnable) + len(l.waiting) + len(l.holding)
}

// DrainBacklog evicts every queued and waiting task back through the
// global spill queue (the drain protocol's backlog hand-off): resolvers
// are cancelled, ownership claims are released via CAS, and each task's
// dependencies ride a spill bridge until its next owner's borrows are in
// place. Dispatched (running) tasks are untouched — the drain waits for
// them via Busy. Returns how many tasks were handed off.
func (l *Local) DrainBacklog() int {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return 0
	}
	var evicted []types.TaskSpec
	for _, t := range l.runnable {
		evicted = append(evicted, t.spec)
	}
	l.runnable = nil
	for _, w := range l.waiting {
		evicted = append(evicted, w.spec)
		l.unparkLocked(w)
	}
	l.mu.Unlock()
	for _, spec := range evicted {
		l.spillAway(spec)
		// Return the enqueue-time borrows last, mirroring runTask's LIFO
		// ordering (spillAway re-retains through the bridge first).
		if l.cfg.Refs != nil {
			l.cfg.Refs.Release(spec.Deps()...)
		}
	}
	return len(evicted)
}

// spillAway routes a task this node owns (or owned) back through the
// global spill queue: the drain's backlog hand-off and divert, and a
// grouped task whose bundle reservation left this node (the gang pass
// re-places the group as a unit and the task follows). The CAS releases a
// live QUEUED/SCHEDULED claim; a task still PENDING — reset by the
// executor's retry path, or evicted before its enqueue stamped QUEUED — is
// published as it stands. If the CAS lost to a concurrent placement,
// whoever won owns the task and no publish is needed.
func (l *Local) spillAway(spec types.TaskSpec) {
	l.bridgeSpill(spec) // flushes this task's ledger state: the table the CAS reads is current
	if _, ok := l.cfg.Ctrl.ClaimTask(spec.ID, []types.TaskStatus{types.TaskQueued, types.TaskScheduled}, types.TaskPending, types.NilNodeID); !ok {
		if st, ok := l.cfg.Ctrl.GetTask(spec.ID); !ok || st.Status != types.TaskPending {
			return // claimed elsewhere (or terminal): not ours to publish
		}
	}
	l.spilled.Add(1)
	l.obs.spilled.Inc()
	l.cfg.Ctrl.PublishSpill(spec)
}

// SetExec assigns the execution callback; must be called before Start.
// (The node wires this after constructing the executor, which needs the
// node itself as the tasks' API backend.)
func (l *Local) SetExec(fn ExecFunc) { l.cfg.Exec = fn }

// record writes the lineage record; reports whether the task is new.
// The lineage ensure runs unconditionally (it is create-or-heal): a
// duplicate AddTask can be a retry whose original ack died with a
// control-plane shard between the task write and the object writes, and
// skipping the ensure would leave return objects without their Producer
// edge — losing lineage reconstructability for anything this task outputs.
//
// This is the ONE synchronous control-plane write a locally-born task pays
// (admission): the task is owned from birth, and its return-object producer
// edges ride the ledger's batched flush instead of one ensure round trip
// per return.
func (l *Local) record(spec types.TaskSpec, placed bool) bool {
	st := types.TaskState{Spec: spec, Status: types.TaskPending, Node: l.cfg.Node}
	if !placed {
		st.Owner = l.cfg.Node // born here: owned from birth (§13)
	}
	added := l.cfg.Ctrl.AddTask(st)
	if added && !placed {
		l.cfg.Ledger.Adopt(spec.ID, 0, types.TaskPending)
	}
	if added {
		// The record now in the table takes these objects by reference;
		// whoever removes it drops the pins (DESIGN.md §17). Exactly once:
		// a duplicate AddTask inserted nothing and pins nothing.
		l.cfg.Ledger.PinLineage(spec.ID, spec.DistinctDeps()...)
	}
	returns := make([]types.ObjectID, spec.NumReturns)
	for i := range returns {
		returns[i] = spec.ReturnID(i)
	}
	l.cfg.Ledger.EnsureLineage(spec.ID, returns...)
	return added
}

// claimPending re-owns a stale task for this node (the steal paths of
// shouldRerun): the claim names this node as the new owner and seeds the
// tenure's fence base, so the previous tenure's straggler writes lose.
func (l *Local) claimPending(id types.TaskID, from []types.TaskStatus) bool {
	seq, ok := l.cfg.Ctrl.ClaimTask(id, from, types.TaskPending, l.cfg.Node)
	if ok {
		l.cfg.Ledger.Adopt(id, seq, types.TaskPending)
	}
	return ok
}

// shouldRerun decides whether a duplicate submission must actually
// re-execute (lineage replay after loss) or can be dropped.
func (l *Local) shouldRerun(spec types.TaskSpec) bool {
	st, ok := l.cfg.Ctrl.GetTask(spec.ID)
	if !ok {
		return true
	}
	switch st.Status {
	case types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning:
		// In flight somewhere. If that somewhere is a dead node, steal it.
		if node, alive := l.nodeAlive(st.Node); node && alive {
			return false
		}
		return l.claimPending(spec.ID, []types.TaskStatus{st.Status})
	case types.TaskFinished:
		if l.outputsIntact(spec) {
			return false
		}
		return l.claimPending(spec.ID, []types.TaskStatus{types.TaskFinished})
	case types.TaskLost, types.TaskFailed:
		return l.claimPending(spec.ID, []types.TaskStatus{st.Status})
	}
	return false
}

func (l *Local) nodeAlive(id types.NodeID) (known, alive bool) {
	if id.IsNil() {
		return false, false
	}
	info, ok := l.cfg.Ctrl.GetNode(id)
	return ok, ok && info.Alive
}

func (l *Local) outputsIntact(spec types.TaskSpec) bool {
	for i := 0; i < spec.NumReturns; i++ {
		info, ok := l.cfg.Ctrl.GetObject(spec.ReturnID(i))
		if !ok || info.State != types.ObjectReady {
			return false
		}
	}
	return true
}

// enqueue admits a task to this node's waiting set, parking it in the
// dependency table under each missing object (dataflow trigger), and moves
// it to the runnable queue once nothing is missing and its QUEUED stamp is
// in. The rows' resolvers start before the borrow flush, so records are read
// and pulls run while that round trip is in flight (E19).
func (l *Local) enqueue(spec types.TaskSpec) {
	// Drain divert: paths that bypass Submit's fence (the executor's retry
	// re-enqueue, runTask's evicted-args requeue, racing placements) land
	// here; a draining node hands the task to the global queue instead of
	// growing a backlog it is trying to shed.
	if l.draining.Load() {
		l.spillAway(spec)
		return
	}
	// Borrow the dependencies for the lifetime of this enqueue: the matching
	// release happens at the end of runTask. A task re-enqueued from
	// runTask's evicted-args path borrows again before that release fires,
	// so the count never dips to zero while the task is anywhere in the
	// pipeline. The retain is a local append made before the task is visible
	// to the paths that evict it and return its borrows.
	deps := spec.Deps()
	borrow := l.cfg.Refs != nil && len(deps) > 0
	if borrow {
		l.cfg.Refs.Retain(deps...)
	}
	var missing map[types.ObjectID]bool
	for _, dep := range deps {
		if !missing[dep] && !l.cfg.Store.Contains(dep) {
			if missing == nil {
				missing = make(map[types.ObjectID]bool)
			}
			missing[dep] = true
		}
	}
	w := &waitingTask{spec: spec, missing: missing}
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		// The task will never run here; return its fresh borrows.
		if borrow {
			l.cfg.Refs.Release(deps...)
		}
		return
	}
	// From here until its QUEUED stamp, the evicting paths can see a task
	// born here that is still PENDING in the task table: spillAway publishes
	// such a task as it stands, and FailTask claims PENDING too.
	l.waiting[spec.ID] = w
	if len(missing) > 0 {
		l.obs.parked.Inc()
	}
	for dep := range missing {
		row := l.parked[dep]
		if row == nil {
			// The object's first parked task starts its one resolver, counted
			// under the lock that checked stopped, so Stop's wg.Wait cannot
			// slip between the check and the resolver's registration.
			row = &parkedObj{tasks: make(map[types.TaskID]*waitingTask)}
			var ctx context.Context
			ctx, row.cancel = context.WithCancel(l.stopCtx)
			l.parked[dep] = row
			l.wg.Add(1)
			go l.resolveParked(ctx, dep)
		}
		row.tasks[spec.ID] = w
	}
	if borrow {
		// The borrows flush BEFORE the QUEUED stamp: the stamp is what lets
		// a previous holder's spill bridge drop its borrow, so this node's
		// share must already be in the control plane's count — and one
		// batched flush covers the whole dependency set, which is why
		// parking cost stays flat in the number of dependencies.
		l.mu.Unlock()
		l.cfg.Refs.Flush()
		l.mu.Lock()
		if l.waiting[spec.ID] != w {
			// Evicted meanwhile: the evictor settled the task and its borrows.
			l.mu.Unlock()
			return
		}
	}
	// Stamp this node as the task's current holder. If this node dies with
	// the task still queued, the task table points at a dead node and the
	// owner-death transfer (or any consumer's reconstruction check) will
	// re-own the task (R6); without the stamp, a task queued-but-not-
	// dispatched on a dead node would be invisible. The stamp is made under
	// the lock, so that no evictor's stamps (FailTask's FAILED, say) can
	// come before it. It is an in-process append that rides the next batched
	// flush while the ledger's flusher runs; a ledger never started (unit
	// tests) or halted at shutdown flushes it inline, under the lock.
	l.cfg.Ledger.Transition(spec.ID, types.TaskQueued, types.NilWorkerID, "")
	w.queued = true
	ready := l.readyLocked(w)
	l.mu.Unlock()
	if ready {
		l.dispatchReady()
	}
}

// readyLocked moves w from the waiting set to the runnable queue if nothing
// is missing and its QUEUED stamp is in, and reports whether it did.
func (l *Local) readyLocked(w *waitingTask) bool {
	if len(w.missing) > 0 || !w.queued {
		return false
	}
	delete(l.waiting, w.spec.ID)
	l.runnable = append(l.runnable, &queuedTask{spec: w.spec, enqueuedAt: time.Now()})
	return true
}

// Resolve blocks until id is resident here and returns its bytes, pulling a
// remote copy and replaying lineage for a lost one: the machinery under
// every Get. task, when known, is the task id is a return of. It returns
// any reconstructor error but the transient fault.ErrControlUnavailable, so
// a reader of a retired object (DESIGN.md §17) gets types.ErrReclaimed.
func (l *Local) Resolve(ctx context.Context, id types.ObjectID, task types.TaskID) ([]byte, error) {
	if data, ok := l.cfg.Store.Get(id); ok {
		return data, nil
	}
	return l.resolve(ctx, id, task, false)
}

// resolveParked is the one resolver of a missing object tasks are parked
// on. It ends when the object lands, when nothing can produce it any more,
// or when its row empties and cancels it.
func (l *Local) resolveParked(ctx context.Context, obj types.ObjectID) {
	defer l.wg.Done()
	_, err := l.resolve(ctx, obj, types.NilTaskID, true)
	switch {
	case err == nil:
		if l.landed(obj) {
			l.dispatchReady()
		}
	case errors.Is(err, types.ErrReclaimed):
		l.failParkedOn(obj)
	}
}

// resolve is the one resolve loop, under a Get and under a parked
// dependency: check the store, read the record, fetch, reconstruct or probe,
// then wait for the arrival, the ready topic or a poll. A Get subscribes
// before its first look, so no ready edge falls between them. A parked
// resolver's first look runs unsubscribed, so a dependency already ready
// elsewhere is pulled without waiting to attach to its topic (a round trip
// on a sharded control plane) while enqueue's borrow flush is in flight
// (E19); a look that leaves the object missing subscribes and looks again
// before any probe or wait. A parked resolver needs only residency, and
// fails only on types.ErrReclaimed. The arrival channel is taken once per
// wait that can end by an arrival, not once per lap, and dropped on return,
// so a resolve that ends without the object holds no waiter in the store.
func (l *Local) resolve(ctx context.Context, id types.ObjectID, task types.TaskID, parked bool) ([]byte, error) {
	var sub gcs.Sub
	var poll *time.Ticker
	var arrival <-chan struct{}
	if !parked {
		sub = l.cfg.Ctrl.Subscribe(gcs.TopicObjectReady, id)
		poll = time.NewTicker(pollPeriod)
	}
	defer func() {
		if arrival != nil {
			l.cfg.Store.StopWait(id, arrival)
		}
		if sub != nil {
			sub.Close()
			poll.Stop()
		}
	}()
	// wakeups numbers the looks that follow a wait.
	for wakeups := 1; ; {
		if parked {
			if l.cfg.Store.Contains(id) {
				return nil, nil
			}
		} else if data, ok := l.cfg.Store.Get(id); ok {
			return data, nil
		}
		probe := false
		info, ok := l.cfg.Ctrl.GetObject(id)
		switch {
		case !ok || info.State == types.ObjectPending && info.Producer.IsNil():
			// No lineage in sight. On the first look that is the producer
			// edge trailing its task by a ledger flush; after a poll it is
			// worth asking whether any task returns the object at all.
			probe = wakeups > 1
		case info.State == types.ObjectReady:
			if l.cfg.Fetcher != nil && len(info.Locations) > 0 {
				fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
				err := l.cfg.Fetcher.FetchObject(fctx, info)
				cancel()
				if err == nil {
					continue
				}
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
		case info.State == types.ObjectLost:
			probe = true
		default:
			// Pending: possibly a producer stranded on a dead node (queued or
			// running there when it died). The reconstructor no-ops for
			// healthy producers and replays stranded ones.
			probe = wakeups%strandedPeriod == 0
		}
		if sub == nil {
			sub = l.cfg.Ctrl.Subscribe(gcs.TopicObjectReady, id)
			poll = time.NewTicker(pollPeriod)
			continue
		}
		if probe && l.cfg.Recon != nil {
			err := l.cfg.Recon(id, task)
			if errors.Is(err, types.ErrReclaimed) || err != nil && !parked && !errors.Is(err, fault.ErrControlUnavailable) {
				return nil, err
			}
		}
		if arrival == nil {
			arrival = l.cfg.Store.WaitChan(id)
		}
		select {
		case <-arrival:
			arrival = nil // re-taken if the object leaves again
		case <-sub.C():
		case <-poll.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-l.stopCtx.Done():
			return nil, ErrStopped
		}
		wakeups++
	}
}

// landed clears obj from every task parked on it; a task whose missing set
// empties becomes runnable, and landed reports whether one did. The store
// calls it on every arrival (arrived), and a row's resolver on finding its
// object resident. One wake clears every dependency of the task that has
// already landed, not just obj: under a busy runqueue each object's
// resolver waits for a timeslice, so clearing strictly one per wake would
// make the park→scheduled edge grow linearly in dependency count even when
// all the objects are long since local.
func (l *Local) landed(obj types.ObjectID) bool {
	l.mu.Lock()
	ready := false
	if row := l.parked[obj]; row != nil {
		for id, w := range row.tasks {
			for dep := range w.missing {
				if dep == obj || l.cfg.Store.Contains(dep) {
					delete(w.missing, dep)
					l.unwaitLocked(dep, id)
				}
			}
			if l.readyLocked(w) {
				ready = true
			}
		}
	}
	l.mu.Unlock()
	return ready
}

// arrived is the store's arrival hook: it lands obj's row on the storing
// goroutine, before the store publishes the object's location — a round
// trip that a row's resolver, pulling the object, would otherwise wait out
// before landing it (E19). The dispatch it makes due runs on a goroutine of
// its own, so no control-plane call of the dispatch (a grouped task's
// claim, a stray's respill) holds up that publish.
func (l *Local) arrived(obj types.ObjectID) {
	if l.landed(obj) {
		go l.dispatchReady()
	}
}

// failParkedOn fails every task parked here on obj, which no record says
// anything can produce any more (types.ReasonReclaimed; Get on their returns
// yields core.ErrReclaimed).
func (l *Local) failParkedOn(obj types.ObjectID) {
	l.mu.Lock()
	var failed []types.TaskSpec
	if row := l.parked[obj]; row != nil {
		for _, w := range row.tasks {
			failed = append(failed, w.spec)
			l.unparkLocked(w)
		}
	}
	l.mu.Unlock()
	for _, spec := range failed {
		l.FailTask(spec, types.ReasonReclaimed+obj.String())
		if l.cfg.Refs != nil {
			l.cfg.Refs.Release(spec.Deps()...)
		}
	}
}

// unparkLocked evicts a waiting task: from the waiting set and from every
// row of the dependency table it sits in.
func (l *Local) unparkLocked(w *waitingTask) {
	delete(l.waiting, w.spec.ID)
	for dep := range w.missing {
		l.unwaitLocked(dep, w.spec.ID)
	}
}

// unwaitLocked drops task from obj's row and cancels obj's resolver once no
// parked task needs the object any more.
func (l *Local) unwaitLocked(obj types.ObjectID, task types.TaskID) {
	if row := l.parked[obj]; row != nil {
		delete(row.tasks, task)
		if len(row.tasks) == 0 {
			delete(l.parked, obj)
			row.cancel()
		}
	}
}

// dispatchReady admits runnable tasks while resources allow, on the
// caller's goroutine: the submitter's, a dependency resolver's, a finishing
// task's, a blocked task's lending its resources. Concurrent callers are
// safe — admitOne pops one task at a time under l.mu, in queue order — and
// no caller holds l.mu. Admission scans past a head-of-line task whose
// demand does not currently fit, so a large task cannot starve small ones
// (R4 heterogeneity). A task started from a goroutine about to block (a
// driver entering Get) is next to run on that goroutine's processor.
func (l *Local) dispatchReady() {
	for {
		task, strays, ok := l.admitOne()
		// Grouped tasks whose reservation left this node respill outside
		// the lock: the gang pass re-places their group as a unit and the
		// global scheduler routes them to the new holder.
		for _, spec := range strays {
			l.spillAway(spec)
			if l.cfg.Refs != nil {
				l.cfg.Refs.Release(spec.Deps()...)
			}
		}
		if !ok {
			return
		}
		// For placement-group members, dispatch is a claim: the
		// QUEUED→SCHEDULED CAS loses exactly when a FailTask buried the
		// task while it sat runnable (group removal racing placement), and
		// running it anyway would produce a second, conflicting set of
		// bytes under return IDs that already hold error payloads. The
		// loser drops its copy and settles its books. The CAS reads the
		// follower table, so this task's enqueue-time QUEUED stamp is
		// flushed first — a member born on the bundle holder is PENDING in
		// the table until then, and would lose the claim to its own
		// unflushed stamp. Non-grouped tasks have no competing QUEUED-state
		// claimant and pay no control-plane write here.
		if task.spec.InGroup() {
			l.cfg.Ledger.FlushTask(task.spec.ID)
			if _, ok := l.cfg.Ctrl.ClaimTask(task.spec.ID, []types.TaskStatus{types.TaskQueued}, types.TaskScheduled, types.NilNodeID); !ok {
				l.releaseHeld(task.spec)
				if l.cfg.Refs != nil {
					l.cfg.Refs.Release(task.spec.Deps()...)
				}
				l.cfg.Ledger.Disown(task.spec.ID) // buried by FailTask: dead tenure
				l.wg.Done()                       // admitOne's count: nothing will run
				continue
			}
		}
		// An in-process ledger append. For a group member it mirrors what
		// the CAS already stamped, so the next flush's full-state delta
		// carries SCHEDULED rather than regressing the follower to QUEUED.
		l.cfg.Ledger.Transition(task.spec.ID, types.TaskScheduled, types.NilWorkerID, "")
		l.dispatched.Add(1)
		l.obs.dispatched.Inc()
		l.obs.dispatchNs.Observe(time.Since(task.enqueuedAt).Nanoseconds())
		l.handOff(task.spec)
	}
}

// handOff runs an admitted task on the most recently parked executor, or on
// a new one when none is parked. The send readies a parked receiver on the
// sender's processor, next in line, as a go statement would; the channel's
// one slot takes the task if the executor has not reached its receive yet.
func (l *Local) handOff(spec types.TaskSpec) {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		next := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		next <- spec
		return
	}
	l.mu.Unlock()
	l.obs.executors.Inc()
	// Counted before the admitted task's wg count drops, so before Stop can
	// reach l.execs.Wait.
	l.execs.Add(1)
	go l.execute(spec)
}

// execute is an executor goroutine: it runs its first task, then parks and
// runs whatever it is handed, one task at a time, so a task reuses a stack
// earlier tasks grew instead of growing a fresh one. A task blocked in Get
// keeps its executor; the next dispatch finds another or starts one.
func (l *Local) execute(spec types.TaskSpec) {
	defer l.execs.Done()
	next := make(chan types.TaskSpec, 1)
	for ok := true; ok; spec, ok = <-next {
		l.runTask(spec)
		if !l.park(next) {
			return
		}
	}
}

// park puts an executor that finished its task on the idle stack, unless the
// scheduler has stopped or maxIdleExecutors are parked already.
func (l *Local) park(next chan types.TaskSpec) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped || len(l.idle) >= maxIdleExecutors {
		return false
	}
	l.idle = append(l.idle, next)
	return true
}

// admitOne pops the first runnable task whose resources are available —
// from its bundle's reservation pool for placement-group members, from the
// general pool otherwise. Grouped tasks stranded without a reservation are
// returned separately for respilling. Nothing is admitted before Start or
// after Stop. An admitted task is counted in wg before the lock drops, so a
// Stop racing the dispatch waits for the task instead of missing it; the
// caller owes that count to runTask (or a wg.Done if it drops the task).
func (l *Local) admitOne() (admitted *queuedTask, strays []types.TaskSpec, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.started || l.stopped {
		return nil, nil, false
	}
	kept := l.runnable[:0]
	for _, t := range l.runnable {
		if t.spec.InGroup() {
			if _, held := l.bundles[bundleKey{group: t.spec.Group, bundle: t.spec.Bundle}]; !held {
				strays = append(strays, t.spec)
				continue
			}
		}
		kept = append(kept, t)
	}
	l.runnable = kept
	for i, t := range l.runnable {
		pool := l.res
		if t.spec.InGroup() {
			pool = l.bundles[bundleKey{group: t.spec.Group, bundle: t.spec.Bundle}]
		}
		if pool.tryAcquire(t.spec.Resources) {
			l.runnable = append(l.runnable[:i], l.runnable[i+1:]...)
			l.holding[t.spec.ID] = pool
			l.wg.Add(1)
			return t, strays, true
		}
	}
	return nil, strays, false
}

// releaseHeld returns a task's resources to the exact pool instance it
// acquired (or last reacquired) them from, clearing the binding.
func (l *Local) releaseHeld(spec types.TaskSpec) {
	l.mu.Lock()
	pool := l.holding[spec.ID]
	delete(l.holding, spec.ID)
	l.mu.Unlock()
	if pool == nil {
		pool = l.poolFor(spec) // defensive: unbound release
	}
	pool.release(spec.Resources)
}

// bindHeld records the pool a task just (re)acquired resources from.
func (l *Local) bindHeld(id types.TaskID, pool *resourcePool) {
	l.mu.Lock()
	l.holding[id] = pool
	l.mu.Unlock()
}

// runTask resolves argument bytes and executes. Dependencies were local at
// enqueue time but may have been evicted since; in that case the task goes
// back to waiting.
func (l *Local) runTask(spec types.TaskSpec) {
	defer l.wg.Done()
	defer l.dispatchReady()
	// Return the enqueue-time borrows last (LIFO): the evicted-args path
	// below re-enqueues — and re-borrows — before this defer runs.
	if l.cfg.Refs != nil {
		defer l.cfg.Refs.Release(spec.Deps()...)
	}
	args, missing := l.gatherArgs(spec)
	if missing {
		l.releaseHeld(spec)
		l.enqueue(spec)
		return
	}
	defer l.releaseHeld(spec)
	defer l.unpinArgs(spec)
	l.cfg.Exec(l.stopCtx, spec, args)
}

// gatherArgs pins and reads reference arguments from the local store.
func (l *Local) gatherArgs(spec types.TaskSpec) ([][]byte, bool) {
	args := make([][]byte, len(spec.Args))
	for i, a := range spec.Args {
		if !a.IsRef {
			args[i] = a.Value
			continue
		}
		l.cfg.Store.Pin(a.Ref)
		data, ok := l.cfg.Store.Get(a.Ref)
		if !ok {
			// Evicted between readiness and admission; retry via waiting.
			for j := 0; j <= i; j++ {
				if spec.Args[j].IsRef {
					l.cfg.Store.Unpin(spec.Args[j].Ref)
				}
			}
			return nil, true
		}
		args[i] = data
	}
	return args, false
}

// unpinArgs releases the pins taken by gatherArgs once execution ends.
func (l *Local) unpinArgs(spec types.TaskSpec) {
	for _, a := range spec.Args {
		if a.IsRef {
			l.cfg.Store.Unpin(a.Ref)
		}
	}
}
