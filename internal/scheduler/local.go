package scheduler

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/jobs"
	"repro/internal/lifetime"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// ExecFunc runs one task whose dependencies have all been resolved to local
// bytes. The local scheduler invokes it on an executor goroutine after
// acquiring the task's resources; the goroutine runs one task at a time and,
// once ExecFunc returns, may be handed the next one. spec is the task's
// spec, shared with the scheduler and the task ledger: read-only. tc is the
// zero API handle the task's record holds for the run, e the task ledger's
// entry the record holds, where the run's stamps park while the task's
// birth is owed (lifetime.TaskLedger.Park), and lender the record, which
// lends the task's resources while it blocks and gives them back for good
// when told so once its function has returned (worker.Executor.Execute).
type ExecFunc func(ctx context.Context, tc *core.TaskContext, lender core.Lender, e *lifetime.TaskEntry, spec *types.TaskSpec, args [][]byte)

// Fetcher pulls a remote object into the local store. lifetime.PullManager
// is the production implementation (chunked, with per-peer backpressure).
type Fetcher interface {
	// FetchObject pulls the object info describes from info.Locations. The
	// dependency table's watch call answers the rest a pull needs of a ready
	// object, and the node's ready feed carries a new copy's size.
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
	Ledger *lifetime.TaskLedger
	// Exec runs ready tasks; SetExec may assign it after construction.
	Exec ExecFunc
	// Recon asks the fault-tolerance layer to make an object — lost, or
	// pending on a producer stranded on a dead node — resolvable again by
	// lineage replay: fault.Reconstructor.RequestReturn; nil disables
	// reconstruction.
	Recon func(id types.ObjectID) error
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

// Local is the per-node scheduler: the first stop for every task born on
// this node (bottom-up scheduling). Tasks become runnable when their
// dependency objects are resident in the node's object store, are admitted
// when their resource demand fits, and spill to the global scheduler when
// the node is overloaded or the task is locally infeasible. A task is
// admitted (Submit, enqueue), waits in the dependency table (deps), is
// dispatched (dispatchReady), runs on an executor (execs, runTask), and
// releases what it holds.
//
// Whenever another lock holder can look, a task admitted here is in exactly
// one place — the dependency table, runnable or held — or it is being
// settled, or runTask is handing it back to the table (evicted arguments);
// evict is the one way out of the first two but a dispatch. Lock
// order: the table's lock before mu, never the reverse. The table holds its
// lock while it hands a ready task to runnable (pushRunnable), so a reader
// that looks at the table first and at runnable next (evict, Busy) sees a
// task in transit in one of them. The executor pool's lock is taken alone.
type Local struct {
	cfg LocalConfig
	res *resourcePool
	// stopCtx is the scheduler's lifetime: cancelled once, in Stop. Every
	// dispatched task runs under it, and every background wait selects on it.
	stopCtx    context.Context
	stopCancel context.CancelFunc

	deps  *depTable
	execs *executors

	// mu guards the five fields below and every task's pool binding
	// (localTask.pool).
	mu       sync.Mutex
	runnable []*localTask
	bundles  map[bundleKey]*resourcePool // gang reservations held here
	// held counts the tasks that hold their demand from a pool.
	held int
	// started gates admission: tasks submitted before Start (the node wires
	// Exec in between) queue, and Start dispatches them.
	started bool
	stopped bool

	// wg counts dispatched tasks, the dependency table's goroutine, its
	// pulls and probes, and spill bridges: Stop waits for them before it
	// closes the executor pool.
	wg sync.WaitGroup

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
	dispatchNs *metrics.Histogram
}

// NewLocal builds a local scheduler; call Start before submitting.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.Ledger == nil {
		panic("scheduler: LocalConfig.Ledger is required")
	}
	names := newResNames(cfg.Total)
	l := &Local{
		cfg:     cfg,
		res:     newResourcePool(names, names.vector(cfg.Total)),
		bundles: make(map[bundleKey]*resourcePool),
	}
	l.stopCtx, l.stopCancel = context.WithCancel(context.Background())
	l.deps = newDepTable(l)
	l.execs = newExecutors(l.runTask, cfg.Metrics)
	cfg.Store.SetArrivalHook(l.deps.arrived)
	l.obs = schedObs{
		submitted:  cfg.Metrics.Counter("scheduler.tasks.submitted"),
		spilled:    cfg.Metrics.Counter("scheduler.tasks.spilled"),
		dispatched: cfg.Metrics.Counter("scheduler.tasks.dispatched"),
		dispatchNs: cfg.Metrics.Histogram("scheduler.dispatch.latency.ns"),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("scheduler.queue.depth", func() int64 { return int64(l.QueueLen()) })
		cfg.Metrics.GaugeFunc("scheduler.waiting.depth", func() int64 { return int64(l.WaitingLen()) })
	}
	return l
}

// Start opens admission, starts the dependency table's goroutine and
// dispatches whatever was submitted before it. There is no dispatcher
// goroutine: from here on, every event that can make a task admissible — a
// submission, a dependency landing, a task or a reservation returning
// resources — dispatches on the goroutine it happens on (dispatchReady).
func (l *Local) Start() {
	l.mu.Lock()
	first := !l.started && !l.stopped
	l.started = true
	if first {
		l.wg.Add(1) // the table's goroutine, counted before Stop can wait
	}
	l.mu.Unlock()
	if first {
		l.deps.start()
	}
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
// counts it (admitOne) and Stop waits for it — or admits nothing. The flag
// goes up before the eviction, and the table parks nothing once it is up.
// Once no task runs, the executor pool closes (executors.close).
func (l *Local) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	l.mu.Unlock()
	abandoned := l.evict(anyTask, true)
	l.stopCancel()
	l.settle(abandoned, nil)
	if l.cfg.Refs != nil && len(abandoned) > 0 {
		l.cfg.Refs.Flush()
	}
	l.wg.Wait()
	l.execs.close()
}

// isStopped reports whether Stop has run.
func (l *Local) isStopped() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stopped
}

// QueueLen reports the runnable backlog (heartbeat load signal).
func (l *Local) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.runnable)
}

// WaitingLen reports tasks blocked on dependencies.
func (l *Local) WaitingLen() int { return l.deps.len() }

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

// Lend implements core.Lender for t's run (worker lending; see
// worker.Executor). Blocked, t gives its demand back to the pool it holds
// it from — its bundle reservation for placement-group members, the
// general pool otherwise — and what that lets start is dispatched; the
// executor lends it so for good once t's function has returned. Unblocked,
// t waits to take its demand again (reacquire).
func (t *localTask) Lend(_ *types.TaskSpec, blocked bool) {
	if blocked {
		t.l.giveBack(t)
	} else {
		t.l.reacquire(t)
	}
}

// reacquire blocks until t's lent demand is regained, and binds t to the
// pool it came from, which may legitimately differ from the one it was lent
// to after a group rollback or re-reservation. The wait is re-resolved
// periodically (and immediately on bundle-pool detach): a member task
// parked on the general pool while its bundle was away would otherwise
// never notice the bundle returning to this node — re-carving the very
// capacity the task is waiting for out of the pool it waits on.
func (l *Local) reacquire(t *localTask) {
	const reResolve = 100 * time.Millisecond
	for {
		timeout := time.Duration(0)
		if t.spec.InGroup() {
			timeout = reResolve
		}
		pool := l.poolFor(&t.spec)
		if pool.acquireBlocking(&t.demand, l.stopCtx.Done(), timeout) {
			l.mu.Lock()
			t.pool = pool
			l.held++
			l.mu.Unlock()
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
// the spillover decision of Section 3.2.2. The task's one record here
// (localTask) takes its copy of spec, which no code writes after.
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
	t := l.newLocalTask(spec)

	if placed {
		// A draining node admits nothing: refuse before the ownership claim
		// so the global scheduler parks the task and re-places it on a node
		// that is still Active (the task stays PENDING, and no ledger here
		// speaks for it).
		if l.draining.Load() {
			if added, _ := l.record(t, l.cfg.Ledger.ClockNs()); added {
				l.cfg.Ledger.Disown(spec.ID)
			}
			return ErrDraining
		}
		// A global-scheduler assignment. Several global schedulers may each
		// place the same spilled task ("one or more global schedulers",
		// Section 3.2); the QUEUED claim below makes exactly one
		// destination own it. The claim also opens this node's ownership
		// tenure: the returned sequence is the fence base every ledger delta
		// for this task must exceed. A placement whose task has no record
		// yet is born here first and claimed again.
		claim := func() (uint64, bool) {
			return l.cfg.Ctrl.ClaimTask(spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, l.cfg.Node)
		}
		seq, ok := claim()
		if !ok {
			if added, _ := l.record(t, l.cfg.Ledger.ClockNs()); !added {
				return nil // the record is another's, and so was the claim
			}
			if seq, ok = claim(); !ok {
				l.cfg.Ledger.Disown(spec.ID) // the record this call wrote went to another claim
				return nil
			}
		}
		l.cfg.Ledger.Adopt(spec.ID, seq, types.TaskQueued)
		l.enqueue(t, l.cfg.Ledger.ClockNs())
		return nil
	}
	// One clock read stamps the birth, the QUEUED stamp and the enqueue time,
	// unless a control-plane round trip comes between them. A spilled task's
	// birth lands in its bridge's flush, ahead of the publish.
	at := l.cfg.Ledger.ClockNs()
	spill := l.spills(t, backlog)
	added, flushed := l.record(t, at)
	if !added {
		if !l.shouldRerun(spec) {
			// Already known to the control plane: either in flight elsewhere
			// or finished with intact outputs (replayed submission, results
			// reusable outright). Only the CAS winner re-runs.
			return nil
		}
		flushed = true
	}
	if spill {
		l.bridgeSpill(spec)
		l.publishSpill(spec)
		return nil
	}
	if flushed {
		at = l.cfg.Ledger.ClockNs()
	}
	l.enqueue(t, at)
	return nil
}

// newLocalTask makes spec's record, resolving its resource demand against
// the node's name table first: nothing writes the spec once the record
// holds it.
func (l *Local) newLocalTask(spec types.TaskSpec) *localTask {
	return &localTask{spec: spec, demand: l.res.names.demand(spec.Resources), l: l}
}

// spills is the spillover decision for a task born here. Grouped tasks run
// only where their bundle reservation lives: born on the holder they
// enqueue directly, anywhere else they spill so the gang-aware global
// scheduler routes them (Section 3.2.2's spillover, reused as the
// placement-group routing fabric). A soft locality hint naming another node
// spills for the same reason — the hint is only meaningful with the global
// view.
func (l *Local) spills(t *localTask, backlog int) bool {
	spec := &t.spec
	if l.draining.Load() {
		return true
	}
	if spec.InGroup() {
		return l.poolFor(spec) == l.res
	}
	localityElsewhere := !spec.Locality.IsNil() && spec.Locality != l.cfg.Node
	infeasible := !l.res.feasible(&t.demand)
	overloaded := l.cfg.SpillThreshold >= 0 && backlog >= l.cfg.SpillThreshold
	return infeasible || overloaded || localityElsewhere
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
	// Flush-before-handoff for task state: the spilled task's record, its
	// lineage and latest stamped state must be in the follower table before
	// another node can act on the spill, and local authority drops — whoever
	// claims the task next owns its lifecycle. So must the records of the
	// tasks born here whose returns it takes as arguments: FlushTask writes
	// every owed birth. Only THIS task's other unflushed state matters for
	// the handoff; a full ledger flush here would serialize every spill
	// behind the whole dirty set (a per-task sync round trip on the submit
	// path).
	l.cfg.Ledger.FlushTask(spec.ID)
	l.cfg.Ledger.Disown(spec.ID)
	deps := spec.Deps()
	if len(deps) == 0 {
		return
	}
	// The arguments escape with the task: the flush above landed their
	// producers' births, which announces them; this covers a producer whose
	// birth a shard refused.
	l.cfg.Store.Announce(deps...)
	if l.cfg.Refs == nil {
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
		st, ok := l.cfg.Ctrl.GetTask(task)
		if ok {
			switch st.Status {
			case types.TaskScheduled, types.TaskRunning, types.TaskFinished, types.TaskLost, types.TaskFailed:
				l.cfg.Refs.Release(deps...)
				return
			}
		} else if p, probes := l.cfg.Ctrl.(gcs.Pinger); !probes || p.Ping() {
			// The spill landed the task's record, so a record the table
			// no longer holds was retired or purged: the task is over.
			l.cfg.Refs.Release(deps...)
			return
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
	if l.isStopped() {
		return ErrStopped
	}
	l.enqueue(l.newLocalTask(spec), l.cfg.Ledger.ClockNs())
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
// Busy reaches zero (every dispatched task released its resources). The
// table is read first: a task that leaves it after that read is in
// runnable before the table's lock drops (see Local).
func (l *Local) Busy() int {
	waiting := l.deps.len()
	l.mu.Lock()
	defer l.mu.Unlock()
	return waiting + len(l.runnable) + l.held
}

// DrainBacklog evicts every queued and waiting task back through the
// global spill queue (the drain protocol's backlog hand-off): pulls in
// flight are cancelled, ownership claims are released via CAS, and each
// task's dependencies ride a spill bridge until its next owner's borrows
// are in place. Dispatched (running) tasks are untouched — the drain waits for
// them via Busy. Returns how many tasks were handed off.
func (l *Local) DrainBacklog() int {
	if l.isStopped() {
		return 0
	}
	evicted := l.evict(anyTask, true)
	l.settle(evicted, l.spillAway)
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
	l.publishSpill(spec)
}

func (l *Local) publishSpill(spec types.TaskSpec) {
	l.spilled.Add(1)
	l.obs.spilled.Inc()
	l.cfg.Ctrl.PublishSpill(spec)
}

// SetExec assigns an execution callback that takes the spec by value, a
// copy per task; must be called before Start. The node sets
// LocalConfig.Exec instead.
func (l *Local) SetExec(fn func(ctx context.Context, spec types.TaskSpec, args [][]byte)) {
	l.cfg.Exec = func(ctx context.Context, _ *core.TaskContext, _ core.Lender, _ *lifetime.TaskEntry, spec *types.TaskSpec, args [][]byte) {
		fn(ctx, *spec, args)
	}
}

// record adopts t into the ledger as born here, in t's entry, and reports whether
// it is new to the control plane. The record itself — the lineage, with the
// return objects' producer edges derived from it — is the ledger's birth.
// A task whose ID is provably new (Birth) and that belongs to no job leaves
// its birth to a later flush, whether it starts at once, spills (its bridge
// flushes the birth) or waits here: it fate-shares with this node, its
// owner, whose death takes its submitter too, and the submitter's lineage
// replays it. Any other submission flushes its birth at once: it may
// duplicate a record (a replay, a retry's children, a fixed driver root, a
// placement), and the birth reports whether the table held one, which is
// the dedupe. So does a task of a job, since admission's usage scan counts
// the job's records. A task that starts here also leaves its returns'
// locations to its birth (objectstore.Store.PutDeferred), so its
// steady-state path makes no synchronous control-plane write. The birth is
// stamped atNs; flushed reports whether record made a control-plane round
// trip after it.
func (l *Local) record(t *localTask, atNs int64) (added, flushed bool) {
	adopted, fresh := l.cfg.Ledger.Birth(&t.entry, &t.spec, atNs)
	if fresh && t.spec.Job.IsNil() {
		return true, false
	}
	held := l.cfg.Ledger.FlushTask(t.spec.ID)
	return adopted && !held, true
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

// outputsIntact reports whether every return of spec is here or has a copy
// the object table lists. The local store is asked first: a return held
// back here is not in the table yet.
func (l *Local) outputsIntact(spec types.TaskSpec) bool {
	for i := 0; i < spec.NumReturns; i++ {
		id := spec.ReturnID(i)
		if l.cfg.Store.Contains(id) {
			continue
		}
		info, ok := l.cfg.Ctrl.GetObject(id)
		if !ok || info.State != types.ObjectReady {
			return false
		}
	}
	return true
}

// enqueue admits t to this node's dependency table, parked under each
// missing object (dataflow trigger); the table moves it to the runnable
// queue once nothing is missing and its QUEUED stamp is in. atNs is a
// clock reading the caller made after its last control-plane round trip:
// the QUEUED stamp's instant and, if t is runnable at once, its enqueue
// time. The table looks at new rows' objects on its own goroutine, so
// records are read and pulls run while the borrow flush is in flight
// (E19).
func (l *Local) enqueue(t *localTask, atNs int64) {
	spec := &t.spec
	// Drain divert: paths that bypass Submit's fence (the executor's retry
	// re-enqueue, runTask's evicted-args requeue, racing placements) land
	// here; a draining node hands the task to the global queue instead of
	// growing a backlog it is trying to shed.
	if l.draining.Load() {
		l.spillAway(*spec)
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
	var missing []types.ObjectID
	for _, dep := range deps {
		if !slices.Contains(missing, dep) && !l.cfg.Store.Contains(dep) {
			missing = append(missing, dep)
		}
	}
	if l.deps.beforePark != nil {
		l.deps.beforePark()
	}
	// From here until its QUEUED stamp, the evicting paths can see a task
	// born here that is still PENDING in the task table: spillAway publishes
	// such a task as it stands, and FailTask claims PENDING too.
	if !l.deps.park(t, missing, atNs) {
		// Stopped: the task will never run here; return its fresh borrows.
		if borrow {
			l.cfg.Refs.Release(deps...)
		}
		return
	}
	if borrow {
		// The borrows flush BEFORE the QUEUED stamp: the stamp is what lets
		// a previous holder's spill bridge drop its borrow, so this node's
		// share must already be in the control plane's count — and one
		// batched flush covers the whole dependency set, which is why
		// parking cost stays flat in the number of dependencies. It is also
		// what keeps a taken return's producer out of collection at home:
		// a reference counted in the table takes the table's path, however
		// the borrow nets out (DESIGN.md §17).
		l.cfg.Refs.Flush()
		atNs = l.cfg.Ledger.ClockNs()
	}
	if l.deps.queue(t, atNs) {
		l.dispatchReady()
	}
}

// pushRunnable appends a task the dependency table has readied, runnable
// since atNs, to the runnable queue; the table calls it holding its own
// lock (see Local).
func (l *Local) pushRunnable(t *localTask, atNs int64) {
	t.enqueuedNs = atNs
	l.mu.Lock()
	l.runnable = append(l.runnable, t)
	l.mu.Unlock()
}

// evictPred picks the tasks evict takes by their spec, read-only; parked
// tells where it picks from. It is called holding the lock of that place:
// the table's when parked is set, mu otherwise.
type evictPred = func(spec *types.TaskSpec, parked bool) bool

func anyTask(*types.TaskSpec, bool) bool { return true }

// evict takes the tasks pred matches out of the dependency table, when
// parked is set, and then out of runnable, and returns them to be settled.
// A matching task the table readies meanwhile is in runnable by the time
// evict looks there (see Local). It is the one eviction path: Stop,
// DrainBacklog, ReleaseGroup, a reclaimed argument and dispatchReady's
// strays.
func (l *Local) evict(pred evictPred, parked bool) (out []types.TaskSpec) {
	if parked {
		out = l.deps.evict(pred)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.runnable[:0]
	for _, t := range l.runnable {
		if pred(&t.spec, false) {
			out = append(out, t.spec)
		} else {
			kept = append(kept, t)
		}
	}
	clear(l.runnable[len(kept):])
	l.runnable = kept
	return out
}

// settle disposes of evicted tasks: fate fails or respills each one (nil
// abandons it), then its enqueue-time borrows are returned, last, mirroring
// runTask's LIFO order (a respill re-retains through its bridge first).
func (l *Local) settle(specs []types.TaskSpec, fate func(types.TaskSpec)) {
	for _, spec := range specs {
		if fate != nil {
			fate(spec)
		}
		if l.cfg.Refs != nil {
			l.cfg.Refs.Release(spec.Deps()...)
		}
	}
}

// Resolve blocks until id is resident here and returns its bytes: the
// machinery under every Get. It waits on id's row of the dependency table,
// whose look, pull, probe and reconstruction serve it as they serve a task
// parked on id (DESIGN.md §3.1), and returns the error that ends the row
// but the transient fault.ErrControlUnavailable, so a reader of a retired
// object (DESIGN.md §17) gets types.ErrReclaimed once it has read so for
// types.RetiredAfter. A Get that ends without the object leaves nothing in
// the table.
func (l *Local) Resolve(ctx context.Context, id types.ObjectID) ([]byte, error) {
	ids, which := []types.ObjectID{id}, []int{0}
	got := make(chan core.Followed, 1)
	for {
		if data, ok := l.cfg.Store.Get(id); ok {
			return data, nil
		}
		// Told at once if id landed since the look, and again if it has gone
		// since the tell.
		l.deps.watch(ids, which, got, true)
		select {
		case f := <-got:
			if f.Err != nil {
				return nil, f.Err
			}
		case <-ctx.Done():
			l.deps.unwatch(ids, which, got)
			return nil, ctx.Err()
		case <-l.stopCtx.Done():
			l.deps.unwatch(ids, which, got)
			return nil, ErrStopped
		}
	}
}

// Follow registers a Wait's refs not counted by a ledger here, ids[i] for
// each i in which, on their rows of the dependency table: each is told on
// told, once, when the table learns of a copy anywhere, or of the error that
// ends its row (Resolve). A Wait's row pulls nothing. stop takes what has
// not been told off the rows.
func (l *Local) Follow(ids []types.ObjectID, which []int, told chan<- core.Followed) (stop func()) {
	l.deps.watch(ids, which, told, false)
	return func() { l.deps.unwatch(ids, which, told) }
}

// dispatchReady admits runnable tasks while resources allow, on the
// caller's goroutine: the submitter's, a dependency's pull's, a finishing
// task's, a blocked task's lending its resources. Concurrent callers are
// safe — admitOne pops one task at a time under l.mu, in queue order — and
// no caller holds l.mu. Admission scans past a head-of-line task whose
// demand does not currently fit, so a large task cannot starve small ones
// (R4 heterogeneity). A task started from a goroutine about to block (a
// driver entering Get) is next to run on that goroutine's processor.
func (l *Local) dispatchReady() {
	for {
		task, stray, ok := l.admitOne()
		if stray {
			// Grouped tasks whose reservation left this node respill outside
			// the lock: the gang pass re-places their group as a unit and the
			// global scheduler routes them to the new holder.
			strayed := func(spec *types.TaskSpec, _ bool) bool {
				return spec.InGroup() && l.bundleLocked(spec) == nil
			}
			l.settle(l.evict(strayed, false), l.spillAway)
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
				l.releaseHeld(task) // the loop dispatches on
				if l.cfg.Refs != nil {
					l.cfg.Refs.Release(task.spec.Deps()...)
				}
				l.cfg.Ledger.Disown(task.spec.ID) // buried by FailTask: dead tenure
				l.wg.Done()                       // admitOne's count: nothing will run
				continue
			}
		}
		// An in-process ledger append, parked in the task's entry while its
		// birth is owed, and the dispatch latency, from one clock read. For a
		// group member it mirrors what the CAS already stamped, so the next
		// flush's full-state delta carries SCHEDULED rather than regressing
		// the follower to QUEUED.
		now := l.cfg.Ledger.ClockNs()
		l.cfg.Ledger.Park(&task.entry, task.spec.ID, types.TaskScheduled, now)
		l.dispatched.Add(1)
		l.obs.dispatched.Inc()
		l.obs.dispatchNs.Observe(now - task.enqueuedNs)
		l.execs.handOff(task, now)
	}
}

// admitOne pops the first runnable task whose resources are available —
// from its bundle's reservation pool for placement-group members, from the
// general pool otherwise. It passes over grouped tasks stranded without a
// reservation and reports whether it saw one (the caller evicts them for
// respilling). Nothing is admitted before Start or after Stop. An
// admitted task is counted in wg before the lock drops, so a Stop racing
// the dispatch waits for the task instead of missing it; the caller owes
// that count to runTask (or a wg.Done if it drops the task).
func (l *Local) admitOne() (admitted *localTask, stray, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.started || l.stopped {
		return nil, false, false
	}
	for i, t := range l.runnable {
		pool := l.res
		if t.spec.InGroup() {
			if pool = l.bundleLocked(&t.spec); pool == nil {
				stray = true
				continue
			}
		}
		if pool.tryAcquire(&t.demand) {
			l.runnable = append(l.runnable[:i], l.runnable[i+1:]...)
			t.pool = pool
			l.held++
			l.wg.Add(1)
			return t, stray, true
		}
	}
	return nil, stray, false
}

// releaseHeld returns t's demand to the exact pool instance it acquired
// (or last reacquired) it from, if t holds it, and unbinds t. Releases must
// go through this exact instance: a bundle released and re-reserved
// creates a NEW pool under the same key, and a key-resolved release from a
// task admitted against the old pool would inflate the new pool's books
// above its reservation. (Detach forwarding routes releases into dead pools
// to the general pool, so the bound instance is always safe to release
// into.) It reports whether t held its demand.
func (l *Local) releaseHeld(t *localTask) bool {
	l.mu.Lock()
	pool := t.pool
	if pool != nil {
		t.pool = nil
		l.held--
	}
	l.mu.Unlock()
	if pool != nil {
		pool.release(&t.demand)
	}
	return pool != nil
}

// giveBack returns t's demand, if it holds it, and dispatches what that
// lets start.
func (l *Local) giveBack(t *localTask) {
	if l.releaseHeld(t) {
		l.dispatchReady()
	}
}

// runTask resolves argument bytes and executes. Dependencies were local at
// enqueue time but may have been evicted since; in that case the task goes
// back to the dependency table. The executor gives the task's demand back
// once its function returns, before a return wakes its reader (Lend); the
// release after Exec covers an ExecFunc that does not.
func (l *Local) runTask(t *localTask) {
	spec := &t.spec
	defer l.wg.Done()
	// Return the enqueue-time borrows last (LIFO): the evicted-args path
	// below re-enqueues — and re-borrows — before this defer runs.
	if l.cfg.Refs != nil {
		defer l.cfg.Refs.Release(spec.Deps()...)
	}
	args, missing := l.gatherArgs(spec)
	if missing {
		l.giveBack(t)
		l.enqueue(t, l.cfg.Ledger.ClockNs())
		return
	}
	defer l.giveBack(t)
	defer l.unpinArgs(spec)
	l.cfg.Exec(l.stopCtx, &t.tc, t, &t.entry, spec, args)
}

// gatherArgs pins and reads reference arguments from the local store.
func (l *Local) gatherArgs(spec *types.TaskSpec) ([][]byte, bool) {
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
func (l *Local) unpinArgs(spec *types.TaskSpec) {
	for _, a := range spec.Args {
		if a.IsRef {
			l.cfg.Store.Unpin(a.Ref)
		}
	}
}
