// Package node assembles one cluster node exactly as drawn in the paper's
// Figure 3: a local scheduler, a shared in-memory object store, and workers
// (goroutine executions admitted by resource accounting), wired to the
// centralized control plane and the cluster network. A Node implements
// core.Backend, so both the driver and every task running on the node share
// one API surface.
package node

import (
	"context"
	"crypto/rand"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gcs"
	"repro/internal/jobs"
	"repro/internal/lifetime"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

// AssignMethod is the transport method by which the global scheduler
// delivers placements to a node's local scheduler.
const AssignMethod = "scheduler.assign"

// Gang-scheduling methods served by every node (DESIGN.md §9): the global
// scheduler's reservation pass drives them.
const (
	// ReserveMethod asks the local scheduler to hold a bundle reservation;
	// payload ReserveReq, error when the capacity is unavailable.
	ReserveMethod = "scheduler.reserve"
	// GroupReleaseMethod drops a group's reservations; payload GroupReleaseReq.
	GroupReleaseMethod = "scheduler.releaseGroup"
	// FailTaskMethod terminally fails a task through this node's store so
	// blocked Gets observe it; payload FailTaskReq.
	FailTaskMethod = "scheduler.failTask"
)

// Wire shapes for the gang-scheduling methods (through codec; the two that
// hold a Resources map ride gob, GroupReleaseReq is plain data).
type (
	// ReserveReq asks for one bundle reservation.
	ReserveReq struct {
		Group  types.PlacementGroupID
		Bundle int
		Res    types.Resources
	}
	// GroupReleaseReq drops a group's reservations; Removed selects
	// fail-members (terminal removal) over respill (placement rollback).
	GroupReleaseReq struct {
		Group   types.PlacementGroupID
		Removed bool
	}
	// FailTaskReq buries a task with a terminal error.
	FailTaskReq struct {
		Spec   types.TaskSpec
		Reason string
	}
)

// Config describes one node.
type Config struct {
	// Resources is the node's total capacity (e.g. {CPU:8, GPU:1}).
	Resources types.Resources
	// StoreCapacity bounds the object store in bytes; 0 = unlimited.
	StoreCapacity int64
	// SpillDir, when set, enables the disk spill tier: under memory
	// pressure the store spills cold-but-referenced objects there instead
	// of failing with ErrStoreFull.
	SpillDir string
	// SpillBudget bounds the spill tier's bytes on disk; 0 = unlimited.
	// Over budget, the tier evicts the coldest unreferenced spill files,
	// and refuses spills (surfacing ErrStoreFull) when every file is still
	// referenced.
	SpillBudget int64
	// Pull tunes the chunked pull protocol (zero value = defaults).
	Pull lifetime.PullConfig
	// SpillThreshold is forwarded to the local scheduler (see
	// scheduler.SpillNever / SpillAlways).
	SpillThreshold int
	// Network connects the node to its peers and must match ListenAddr.
	Network transport.Network
	// ListenAddr is the node server's bind address.
	ListenAddr string
	// AdvertiseAddr is the address peers dial; defaults to the address the
	// node bound (ListenAddr with an ephemeral port resolved).
	AdvertiseAddr string
	// Ctrl is the control plane.
	Ctrl gcs.API
	// Registry holds the functions this node's workers can run.
	Registry *core.Registry
	// HeartbeatInterval for load reporting; 0 disables heartbeats.
	HeartbeatInterval time.Duration
	// Metrics, when set, is the registry the node instruments into instead
	// of creating its own — processes that host more than the node (e.g.
	// raynode's head, which also runs the GCS supervisor) share one so all
	// process metrics ship in the node's heartbeat.
	Metrics *metrics.Registry
}

// Node is a running cluster node.
type Node struct {
	id      types.NodeID
	addr    string
	cfg     Config
	ctrl    gcs.API
	store   *objectstore.Store
	tier    *lifetime.DiskSpiller
	life    *lifetime.Manager
	fetcher *lifetime.PullManager
	migr    *lifetime.Migrator
	taskled *lifetime.TaskLedger
	admit   *jobs.Admission
	sched   *scheduler.Local
	exec    *worker
	recon   reconstructor
	// reg/tracer are this node's telemetry plane. The heartbeat loop ships
	// snapshots and drained spans to the GCS.
	reg    *metrics.Registry
	tracer *metrics.Tracer
	sink   gcs.TelemetrySink
	// draining guards against concurrent drain executions (a pub/sub event
	// racing the poll fallback).
	draining atomic.Bool

	server   *transport.Server
	listener transport.Listener

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	dead     atomic.Bool
}

// worker aliases the executor to keep the Node struct readable.
type worker = executorShim

// reconstructor is what the node asks of the fault-tolerance layer
// (fault.Reconstructor): make a lost object, or one whose producer is
// stranded on a dead node, resolvable again. The scheduler's dependency
// table and resolve loop read the field at call time, so a wrapper put in
// front of it after New (a test's counter) sees every call.
type reconstructor interface {
	RequestReturn(id types.ObjectID) error
}

// New builds and starts a node: object store, pull server, local scheduler,
// executor, reconstructor, heartbeats, and control-plane registration.
func New(cfg Config) (*Node, error) {
	if cfg.Ctrl == nil || cfg.Network == nil || cfg.Registry == nil {
		return nil, fmt.Errorf("node: Ctrl, Network, and Registry are required")
	}
	if cfg.Resources == nil {
		cfg.Resources = types.CPU(8)
	}
	var id types.NodeID
	if _, err := rand.Read(id[:]); err != nil {
		return nil, err
	}

	n := &Node{id: id, cfg: cfg, ctrl: cfg.Ctrl, stop: make(chan struct{})}
	n.reg = cfg.Metrics
	if n.reg == nil {
		n.reg = metrics.NewRegistry()
	}
	now := clusterClock(cfg.Ctrl)
	n.tracer = metrics.NewTracer(0, id.Hex(), now)
	n.sink, _ = cfg.Ctrl.(gcs.TelemetrySink)
	// A remote or sharded control-plane client can time its RPCs; wire it
	// into this node's registry so gcs.rpc.* ships with heartbeats.
	if ms, ok := cfg.Ctrl.(interface{ SetMetrics(*metrics.Registry) }); ok {
		ms.SetMetrics(n.reg)
	}
	n.store = objectstore.New(id, cfg.Ctrl, cfg.StoreCapacity)
	n.store.SetObservability(n.reg, n.tracer)
	n.life = lifetime.NewManager(cfg.Ctrl, n.store)
	n.life.SetMetrics(n.reg)
	n.store.SetRefChecker(n.life.Referenced)
	if cfg.SpillDir != "" {
		tier, err := lifetime.NewDiskSpiller(cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		tier.SetBudget(cfg.SpillBudget)
		// Budget eviction uses the same liveness oracle as spill-vs-drop:
		// only unreferenced files are reclaimable, and an unreachable
		// control plane (shard mid-failover) reads as "referenced".
		tier.SetRefChecker(n.life.Referenced)
		// Startup hygiene: a previous incarnation's spill files are orphans
		// here — this node's fresh ID owns none of them, and files whose
		// object-table entry is gone are unreachable garbage either way.
		// Swept before the store can spill, so nothing live is at risk.
		if _, err := tier.SweepOrphans(func(obj types.ObjectID) bool {
			info, ok := cfg.Ctrl.GetObject(obj)
			return ok && info.IsSpilledOn(id)
		}); err != nil {
			return nil, err
		}
		n.tier = tier
		n.store.SetSpillTier(tier)
	}
	n.fetcher = lifetime.NewPullManager(n.store, cfg.Ctrl, cfg.Network, n.resolvePeerAddr, cfg.Pull)
	n.fetcher.SetObservability(n.reg, n.tracer)
	n.migr = lifetime.NewMigrator(n.fetcher, n.life.Tracker())
	// The owner-side task ledger (DESIGN.md §13): this node is the authority
	// for the state and lineage of every task submitted through it, and the
	// GCS task table follows via batched async deltas.
	n.taskled = lifetime.NewTaskLedger(cfg.Ctrl)
	n.taskled.SetClock(now)
	n.taskled.SetNode(id)
	n.taskled.SetMetrics(n.reg)
	n.taskled.SetCollector(n.life)
	n.life.SetTaskLedger(n.taskled)
	// Per-submit job admission (DESIGN.md §14). The TTL cache amortizes the
	// job-record read and quota usage scan across a burst of submissions.
	n.admit = jobs.NewAdmission(cfg.Ctrl, 0)

	n.recon = &fault.Reconstructor{
		Ctrl:   cfg.Ctrl,
		Ledger: n.taskled,
		Resubmit: func(spec types.TaskSpec) error {
			if n.dead.Load() {
				return scheduler.ErrStopped
			}
			return n.sched.Submit(spec, false)
		},
	}
	n.exec = newExecutorShim(n)
	n.sched = scheduler.NewLocal(scheduler.LocalConfig{
		Node:           id,
		Total:          cfg.Resources,
		Ctrl:           cfg.Ctrl,
		Store:          n.store,
		Fetcher:        n.fetcher,
		Refs:           n.life.Tracker(),
		Ledger:         n.taskled,
		Exec:           n.exec.Execute,
		Recon:          func(id types.ObjectID) error { return n.recon.RequestReturn(id) },
		SpillThreshold: cfg.SpillThreshold,
		Metrics:        n.reg,
		JobFence: func(id types.JobID) bool {
			info, ok := n.admit.Job(id)
			return ok && info.State != types.JobRunning
		},
	})

	n.server = transport.NewServer()
	n.server.SetMetrics(n.reg)
	objectstore.RegisterPullHandler(n.server, n.store)
	objectstore.RegisterPushHandler(n.server, n.store, func() bool {
		return !n.dead.Load() && !n.sched.Draining()
	})
	lifetime.RegisterMigrateHandler(n.server, n.fetcher)
	n.server.Handle(AssignMethod, func(payload []byte) ([]byte, error) {
		spec, err := codec.DecodeAs[types.TaskSpec](payload)
		if err != nil {
			return nil, fmt.Errorf("node: bad assignment: %w", err)
		}
		if err := n.sched.Submit(spec, true); err != nil {
			return nil, err
		}
		return nil, nil
	})
	n.server.Handle(ReserveMethod, func(payload []byte) ([]byte, error) {
		req, err := codec.DecodeAs[ReserveReq](payload)
		if err != nil {
			return nil, fmt.Errorf("node: bad reservation: %w", err)
		}
		if !n.sched.ReserveBundle(req.Group, req.Bundle, req.Res) {
			return nil, fmt.Errorf("node: bundle %d of %v does not fit %v", req.Bundle, req.Group, req.Res)
		}
		return nil, nil
	})
	n.server.Handle(GroupReleaseMethod, func(payload []byte) ([]byte, error) {
		req, err := codec.DecodeAs[GroupReleaseReq](payload)
		if err != nil {
			return nil, fmt.Errorf("node: bad group release: %w", err)
		}
		n.sched.ReleaseGroup(req.Group, req.Removed)
		return nil, nil
	})
	n.server.Handle(FailTaskMethod, func(payload []byte) ([]byte, error) {
		req, err := codec.DecodeAs[FailTaskReq](payload)
		if err != nil {
			return nil, fmt.Errorf("node: bad fail request: %w", err)
		}
		n.sched.FailTask(req.Spec, req.Reason)
		return nil, nil
	})
	listener, err := cfg.Network.Listen(cfg.ListenAddr, n.server)
	if err != nil {
		return nil, fmt.Errorf("node: listen %s: %w", cfg.ListenAddr, err)
	}
	n.listener = listener
	n.addr = cfg.AdvertiseAddr
	if n.addr == "" {
		n.addr = listener.Addr()
	}

	cfg.Ctrl.RegisterNode(types.NodeInfo{ID: id, Addr: n.addr, Total: cfg.Resources.Clone()})
	n.life.Start()
	n.taskled.Start()
	n.sched.Start()
	if cfg.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	n.wg.Add(1)
	go n.drainWatch()
	return n, nil
}

// clusterClock returns a node's one clock, in cluster-epoch nanoseconds:
// one control-plane NowNs at boot plus the local monotonic offset, so
// stamps and spans from different nodes line up on one timeline without a
// per-read RPC. The node's task ledger stamps from it, the scheduler and
// the executor read it through the ledger (ClockNs), and its tracer times
// spans with it. It is a variable so a test can count the reads.
var clusterClock = func(ctrl gcs.API) func() int64 {
	boot, start := ctrl.NowNs(), time.Now()
	if boot == 0 { // control plane unreachable: the local clock
		boot = start.UnixNano()
	}
	return func() int64 { return boot + int64(time.Since(start)) }
}

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.id }

// Addr returns the node's advertised transport address.
func (n *Node) Addr() string { return n.addr }

// Store exposes the object store (tests, tools).
func (n *Node) Store() *objectstore.Store { return n.store }

// Lifetime exposes the lifetime manager (tests, dashboards).
func (n *Node) Lifetime() *lifetime.Manager { return n.life }

// Puller exposes the chunked pull manager (tests, dashboards).
func (n *Node) Puller() *lifetime.PullManager { return n.fetcher }

// Scheduler exposes the local scheduler (tests, dashboards).
func (n *Node) Scheduler() *scheduler.Local { return n.sched }

// Executor exposes execution counters (dashboards).
func (n *Node) Executor() ExecStats { return n.exec }

// Registry returns the node's function registry.
func (n *Node) Registry() *core.Registry { return n.cfg.Registry }

// Metrics returns the node's metrics registry.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Tracer returns the node's span tracer.
func (n *Node) Tracer() *metrics.Tracer { return n.tracer }

func (n *Node) resolvePeerAddr(id types.NodeID) (string, bool) {
	info, ok := n.ctrl.GetNode(id)
	if !ok || !info.Alive {
		return "", false
	}
	return info.Addr, true
}

func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			stats := n.store.Stats()
			stats.Reclaimed = n.life.Reclaimed()
			if n.tier != nil {
				stats.TierEvicted = n.tier.TierEvictions()
			}
			n.ctrl.Heartbeat(n.id, n.sched.QueueLen(), n.sched.Available(), stats)
			n.publishTelemetry()
		case <-n.stop:
			return
		}
	}
}

// publishTelemetry ships the node's metric snapshot and any spans recorded
// since the last heartbeat to the control plane (R7: profiling tools read
// them from centralized state). Telemetry is best-effort and ephemeral —
// a failed publish drops this interval's spans rather than retrying into
// a degraded control plane.
func (n *Node) publishTelemetry() {
	if n.sink == nil {
		return
	}
	spans := n.tracer.Drain()
	n.sink.PublishTelemetry(n.id, n.reg.Snapshot(), spans)
}

// --- drain protocol (DESIGN.md §10) ---

// drainPoll is how often a node reads its own record for a Draining mark
// the node-events subscription missed. It is deliberately slow: the
// subscription is the fast path, a drain start tolerates sub-second
// latency, and every poll tick is a control-plane RPC paid by every node
// for its whole lifetime.
const drainPoll = 500 * time.Millisecond

// drainWatch notices a Draining mark on this node's own control-plane
// record — set by the autoscaler's scale-down decision or an operator's
// `rayctl drain` — and runs the drain. The node-events subscription is the
// fast path; the poll is the at-least-once fallback for a dropped event.
func (n *Node) drainWatch() {
	defer n.wg.Done()
	sub := n.ctrl.Subscribe(gcs.TopicNodes, types.NilNodeID)
	defer sub.Close()
	t := time.NewTicker(drainPoll)
	defer t.Stop()
	subC := sub.C()
	for {
		marked := false
		select {
		case msg, ok := <-subC:
			if !ok {
				subC = nil // dead subscription: degrade to the poll
				continue
			}
			info, err := gcs.DecodeNodeEvent(msg)
			if err != nil || info.ID != n.id {
				continue
			}
			marked = info.State == types.NodeDraining
		case <-t.C:
			info, ok := n.ctrl.GetNode(n.id)
			marked = ok && info.State == types.NodeDraining
		case <-n.stop:
			return
		}
		if marked && n.runDrain() {
			return // drained and shutting down
		}
	}
}

// runDrain executes the drain state machine: fence admissions, hand the
// backlog to the global queue, quiesce running tasks, spill-migrate every
// object to peers, commit Draining→Drained, and deregister. Any failure —
// or an operator/autoscaler rollback of the record to Active — aborts:
// the fence drops and the node serves again. Reports whether the node
// drained (and is shutting down).
func (n *Node) runDrain() bool {
	if !n.draining.CompareAndSwap(false, true) {
		return false // a drain is already running
	}
	defer n.draining.Store(false)
	n.ctrl.LogEvent(types.Event{Kind: "drain-start", Node: n.id})
	n.sched.SetDraining(true)
	evicted := n.sched.DrainBacklog()
	// Quiesce: wait out tasks already dispatched or blocked mid-Get. New
	// work cannot arrive (admissions are fenced; the global scheduler
	// stopped placing here when the CAS published).
	for n.sched.Busy() > 0 || n.exec.Active() > 0 {
		if n.drainRolledBack() {
			return n.abortDrain("quiesce")
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-n.stop:
			return true // killed or shut down mid-drain; nothing to resume
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-n.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := n.migr.DrainObjects(ctx, n.drainRolledBack); err != nil {
		if n.dead.Load() {
			return true
		}
		// Migration cannot complete (no Active peers, peers full, or an
		// operator abort): roll back to Active rather than strand data.
		n.ctrl.CASNodeState(n.id, []types.NodeState{types.NodeDraining}, types.NodeActive)
		return n.abortDrain(err.Error())
	}
	if !n.ctrl.CASNodeState(n.id, []types.NodeState{types.NodeDraining}, types.NodeDrained) {
		return n.abortDrain("drained commit lost") // rolled back underneath
	}
	migrated, dropped := n.migr.Stats()
	n.ctrl.LogEvent(types.Event{Kind: "drain-complete", Node: n.id,
		Detail: fmt.Sprintf("migrated=%d dropped=%d respilled=%d", migrated, dropped, evicted)})
	// Safety net for anything that slipped in after the final sweep: drop
	// it with its location deregistered so consumers see Lost (lineage
	// replay) instead of a phantom copy on a deregistered node.
	n.store.DropAll()
	go n.Shutdown()
	return true
}

// drainRolledBack reports whether this node's record left Draining — the
// autoscaler's drain timeout or an operator abort rolled it back. An
// unreadable record (control plane mid-failover) is NOT a rollback: the
// drain holds its course and retries against the restarted shard.
func (n *Node) drainRolledBack() bool {
	info, ok := n.ctrl.GetNode(n.id)
	return ok && info.State != types.NodeDraining
}

// abortDrain drops the admission fence and resumes normal service.
func (n *Node) abortDrain(why string) bool {
	n.sched.SetDraining(false)
	n.ctrl.LogEvent(types.Event{Kind: "drain-abort", Node: n.id, Detail: why})
	return false
}

// --- core.Backend ---

// SubmitTask implements core.Backend.
func (n *Node) SubmitTask(spec types.TaskSpec) error {
	if n.dead.Load() {
		return scheduler.ErrStopped
	}
	return n.sched.Submit(spec, false)
}

// ObjectLocal implements core.Backend.
func (n *Node) ObjectLocal(id types.ObjectID) bool { return n.store.Contains(id) }

// ObjectsLocal implements core.Backend (objectstore.Store.ContainsEach).
func (n *Node) ObjectsLocal(ids []types.ObjectID, local []bool) int {
	return n.store.ContainsEach(ids, local)
}

// PutObject implements core.Backend.
func (n *Node) PutObject(id types.ObjectID, data []byte) error {
	return n.store.Put(id, data)
}

// Control implements core.Backend.
func (n *Node) Control() gcs.API { return n.ctrl }

// RetainObject implements core.RefCounted: futures created through this
// node hold references in its lifetime tracker.
func (n *Node) RetainObject(id types.ObjectID) { n.life.Tracker().Retain(id) }

// ReleaseObject implements core.RefCounted.
func (n *Node) ReleaseObject(id types.ObjectID) { n.life.Tracker().Release(id) }

// NodeID implements core.Backend.
func (n *Node) NodeID() types.NodeID { return n.id }

// OwnsTask implements core.TaskOwner: futures whose producing task this
// node owns resolve from the in-process ledger's state events instead of
// per-object control-plane subscriptions (DESIGN.md §13).
func (n *Node) OwnsTask(id types.TaskID) bool { return n.taskled.Owns(id) }

// OwnRoot implements core.TaskOwner (lifetime.TaskLedger.Root).
func (n *Node) OwnRoot(root types.TaskID) { n.taskled.Root(root) }

// WaitEnds implements core.TaskOwner (lifetime.TaskLedger.WaitEnds).
func (n *Node) WaitEnds(tasks []types.TaskID, slack int) (core.EndWait, []int) {
	return n.taskled.WaitEnds(tasks, slack)
}

// endWaits recycles the channels owner-side Gets wait on: one event, so
// capacity 1, and empty whenever it is in the pool.
var endWaits = sync.Pool{New: func() any { return make(chan types.TaskID, 1) }}

// AdmitJobTask implements core.JobGate: one tenanted submission is decided
// against the job's record and quota ceilings through the node's TTL-cached
// admission state (DESIGN.md §14).
func (n *Node) AdmitJobTask(job types.JobID) error { return n.admit.Admit(job) }

// TaskLedger exposes the owner-side task ledger (tests, dashboards).
func (n *Node) TaskLedger() *lifetime.TaskLedger { return n.taskled }

// ResolveObject implements core.Backend: the local scheduler's resolver
// (scheduler.Local.Resolve), run on the caller's goroutine. While this
// node's ledger owns the task id is a return of (types.ObjectID.Producer),
// the wait is on the ledger's end event alone: no control-plane call, and
// no store waiter. Every path that ends a task here stores its returns (or
// error payloads) before the terminal stamp — the executor, FailTask — so
// at the event the object is in the store, or the tenure ended without it
// (spilled away, drained, transferred, output evicted) and the resolver
// takes over, unchanged, as it does for every object whose task is not
// owned here. A task still SCHEDULED was just handed to an executor,
// readied next on this processor (dispatchReady): the Get yields to it
// once, and waits only if the return is not stored by then. It runs no task
// itself, so its context still ends it.
func (n *Node) ResolveObject(ctx context.Context, id types.ObjectID) ([]byte, error) {
	if task := id.Producer(); !task.IsNil() {
		ended := endWaits.Get().(chan types.TaskID)
		defer endWaits.Put(ended)
		watching, handed := n.taskled.WatchEndOrYield(ended, task, true)
		if handed {
			runtime.Gosched()
			if data, ok := n.store.Get(id); ok {
				return data, nil
			}
			watching = n.taskled.WatchEnd(ended, task)
		}
		if watching {
			// A return already stored needs no wait, though its task is
			// not terminal: a replay for a lost sibling return holds it
			// pending here, and a Get may come with no context to end it.
			data, stored := n.store.Get(id)
			var err error
			if !stored {
				select {
				case <-ended:
				case <-ctx.Done():
					err = ctx.Err()
				case <-n.stop:
					err = scheduler.ErrStopped
				}
			}
			if stored || err != nil {
				n.taskled.Unwatch(ended, task)
				select { // the end may have come before Unwatch
				case <-ended:
				default:
				}
				return data, err
			}
		}
	}
	return n.sched.Resolve(ctx, id)
}

// --- lifecycle ---

// Shutdown stops the node gracefully.
func (n *Node) Shutdown() {
	n.stopOnce.Do(func() {
		n.dead.Store(true)
		close(n.stop)
		n.sched.Stop()
		// Final task-ledger flush: every terminal transition this owner
		// stamped reaches the follower table before the node deregisters.
		n.taskled.Stop()
		// Settle the node's ledger: drivers', borrows', and bridges'
		// references all die with a graceful shutdown, so surviving nodes
		// can reclaim anything only this node kept alive. (Kill skips
		// this: a crashed process cannot release, and leaked counts are
		// the conservative failure mode.)
		n.life.Tracker().ReleaseAll()
		n.life.Stop()
		if n.listener != nil {
			n.listener.Close()
		}
		n.fetcher.Close()
		// Quiesce the node's own loops BEFORE declaring death: a heartbeat
		// in flight after MarkNodeDead would resurrect Alive on a record
		// nobody will ever mark dead again.
		n.wg.Wait()
		n.ctrl.MarkNodeDead(n.id)
	})
}

// Kill simulates a node crash for fault-tolerance experiments (R6): the
// scheduler dies with its queues, the object store's memory vanishes, the
// server stops answering, and the control plane learns the node is dead.
// Objects whose only copy lived here transition to LOST.
func (n *Node) Kill() {
	n.stopOnce.Do(func() {
		n.dead.Store(true)
		// Abandon the reference ledger FIRST: unflushed deltas die with the
		// process (and the dead-latch stops the scheduler teardown below
		// from flushing its releases — a crashed node cannot release). The
		// owner-death sweep reconciles what this node had already flushed.
		n.life.Kill()
		// Same for the task ledger: unflushed task-state deltas die here,
		// and the global scheduler's owner-transfer sweep re-drives the
		// tasks this owner leaves behind in the follower table. A task the
		// stop interrupts then stores no failure for a reader to take.
		n.taskled.Abandon()
		close(n.stop)
		n.sched.Stop()
		if n.listener != nil {
			n.listener.Close()
		}
		n.store.Fail()
		n.fetcher.Close()
		n.wg.Wait()
		n.ctrl.MarkNodeDead(n.id)
	})
}
