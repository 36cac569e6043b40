package scheduler

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gcs"
	"repro/internal/jobs"
	"repro/internal/types"
)

// AssignFunc delivers a placement decision to a node's local scheduler
// (an RPC in distributed mode, a direct call in in-process clusters).
type AssignFunc func(node types.NodeID, addr string, spec types.TaskSpec) error

// GlobalConfig configures a Global scheduler.
type GlobalConfig struct {
	Ctrl   gcs.API
	Assign AssignFunc
	Policy Policy
	// Reserve, ReleaseGroup, and FailTask wire the gang-scheduling pass to
	// the nodes (see gang.go). Leaving Reserve nil disables the pass.
	Reserve      ReserveFunc
	ReleaseGroup GroupReleaseFunc
	FailTask     FailFunc
	// JobGrace is how long a Stopped job's task and object records linger
	// before the reclaim pass tombstones them (DESIGN.md §14) — the window
	// in which dashboards and stragglers can still observe the corpse.
	// Zero selects a default; negative disables purging (records linger
	// until an operator intervenes).
	JobGrace time.Duration
}

// Global is the cluster-level half of hybrid scheduling: it subscribes to
// the spillover channel and places tasks using global information — node
// liveness, resource feasibility, heartbeat load, and object locality.
// Tasks with no feasible node park until cluster membership or load
// changes. Multiple Global instances may run; the spill channel fans out
// and deterministic task IDs make duplicate placements converge.
type Global struct {
	cfg  GlobalConfig
	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	parked map[types.TaskID]types.TaskSpec // keyed to dedup re-parks
	// reapedGroups remembers removed groups already reaped by this
	// scheduler (reaping is idempotent; the set only saves repeat RPCs).
	reapedGroups map[types.PlacementGroupID]bool
	// gangIdle latches "no placement groups exist" after a scan so idle
	// retry ticks skip the group-table fan-out; cleared by group events
	// and re-checked every gangIdleResync.
	gangIdle    bool
	gangScanned time.Time
	// groupCache is the last gang pass's scan, reused (while fresh) for
	// member-task routing so a gang of K parked members costs one table
	// scan instead of K record lookups.
	groupCache map[types.PlacementGroupID]types.PlacementGroupInfo
	// probeAt rate-limits the per-group Placed reservation repair probe.
	probeAt map[types.PlacementGroupID]time.Time
	// releaseRetry queues (group, node) release RPCs that failed
	// transiently, so rollbacks never strand a reservation (value:
	// the release's removed flag).
	releaseRetry map[releaseKey]bool
	// nodeCache is the last node-table scan, reused while fresh for
	// placement candidate building — a spill burst of K tasks costs one
	// table scan instead of K×N full-record decodes. Invalidated by
	// membership events; the short TTL bounds heartbeat staleness, which
	// placement already tolerates (load fields are heartbeat-stale by
	// construction).
	nodeCache   []types.NodeInfo
	nodeScanned time.Time
	// refSwept remembers dead nodes whose refcount shares have been swept
	// from the object table (DESIGN.md §12). A node stays unswept — and is
	// retried by every membership event and sweep tick — until the
	// idempotent sweep reports it covered the whole table.
	refSwept map[types.NodeID]bool
	// ownerSwept remembers dead nodes whose live owned tasks have been
	// transferred to successor owners (DESIGN.md §13). Like refSwept, a
	// node stays unswept until a transfer pass sees a complete follower-
	// table view (every shard reachable) — re-owning from a partial scan
	// could strand the tasks on the unreachable shard forever.
	ownerSwept map[types.NodeID]bool
	// jobCache mirrors the job table (fed by job events, healed by lazy
	// GetJob) for fair-share weights and the terminated-job dispatch fence.
	jobCache map[types.JobID]types.JobInfo

	// fair orders spilled tasks for dispatch by weighted fair share
	// (DESIGN.md §14). Owned exclusively by the run goroutine.
	fair *jobs.FairQueue
	// fairDebits tracks, per node, the NowNs timestamps of fair-queue
	// dispatches not yet reflected in that node's heartbeat (entries at or
	// before the node's LastSeen are pruned — the heartbeat's QueueLen has
	// absorbed them). It makes the dispatch gate's view of node backlog
	// self-correcting without a task-event feed. Run-goroutine owned.
	fairDebits map[types.NodeID][]int64

	spillSub gcs.Sub
	nodeSub  gcs.Sub
	groupSub gcs.Sub
	jobSub   gcs.Sub

	placed   atomic.Int64
	parkedCt atomic.Int64
}

const (
	// retryInterval bounds how long an unplaceable task parks before the
	// next placement attempt.
	retryInterval = 50 * time.Millisecond
	// sweepInterval is how often the pending-task sweep scans the task
	// table for stale unclaimed PENDING tasks — spilled tasks whose
	// pub/sub publish was dropped (e.g. by a control-plane shard crash
	// between accepting the publish and delivering it). The task record
	// itself is durable, so the sweep is the at-least-once fallback under
	// the at-most-once spill channel. The tick also runs the dead-owner
	// sweep and the job pass.
	sweepInterval = 500 * time.Millisecond
	// sweepAge is how long a task may sit in PENDING before the sweep
	// considers it unclaimed.
	sweepAge = 500 * time.Millisecond
)

// NewGlobal builds a global scheduler; call Start to begin placing.
func NewGlobal(cfg GlobalConfig) *Global {
	if cfg.Policy == nil {
		cfg.Policy = LocalityPolicy{}
	}
	if cfg.JobGrace == 0 {
		cfg.JobGrace = 500 * time.Millisecond
	}
	g := &Global{
		cfg:          cfg,
		stop:         make(chan struct{}),
		reapedGroups: make(map[types.PlacementGroupID]bool),
		probeAt:      make(map[types.PlacementGroupID]time.Time),
		releaseRetry: make(map[releaseKey]bool),
		refSwept:     make(map[types.NodeID]bool),
		ownerSwept:   make(map[types.NodeID]bool),
		jobCache:     make(map[types.JobID]types.JobInfo),
		fairDebits:   make(map[types.NodeID][]int64),
	}
	g.fair = jobs.NewFairQueue(g.jobWeight)
	return g
}

// Start launches the placement loop. Subscriptions are established before
// Start returns, so no spill published after Start can be missed.
func (g *Global) Start() {
	g.spillSub = g.cfg.Ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	g.nodeSub = g.cfg.Ctrl.Subscribe(gcs.TopicNodes, types.NilNodeID)
	g.groupSub = g.cfg.Ctrl.Subscribe(gcs.TopicPlacementGroups, types.NilPlacementGroupID)
	g.jobSub = g.cfg.Ctrl.Subscribe(gcs.TopicJobs, types.NilJobID)
	g.wg.Add(1)
	go g.run()
}

// Stop halts placement.
func (g *Global) Stop() {
	select {
	case <-g.stop:
		return
	default:
	}
	close(g.stop)
	g.wg.Wait()
}

// Placed returns the cumulative count of successful placements.
func (g *Global) Placed() int64 { return g.placed.Load() }

// Parked returns how many placement attempts found no feasible node.
func (g *Global) Parked() int64 { return g.parkedCt.Load() }

func (g *Global) run() {
	defer g.wg.Done()
	spillSub := g.spillSub
	defer spillSub.Close()
	nodeSub := g.nodeSub
	defer nodeSub.Close()
	groupSub := g.groupSub
	defer groupSub.Close()
	jobSub := g.jobSub
	defer jobSub.Close()
	retry := time.NewTicker(retryInterval)
	defer retry.Stop()
	// The pace tick re-runs gated fair dispatch as heartbeats absorb
	// earlier placements. It exists because backlog held by the contention
	// gate has no event to wake on — task completions publish per-task
	// channels only — and the retry tick is too coarse to keep a contended
	// cluster saturated. A no-op (one int compare) whenever nothing is held.
	pace := time.NewTicker(5 * time.Millisecond)
	defer pace.Stop()
	sweep := time.NewTicker(sweepInterval)
	defer sweep.Stop()

	// Receive through local variables so a closed subscription disables
	// its case (nil channel) instead of becoming permanently ready — a
	// dead control plane must degrade to the retry tick, not a hot spin
	// or an exit. The spill feed in particular has a durable fallback
	// (the pending-task sweep), so losing the subscription must not kill
	// the scheduler: the sweep, retry tick, and gang maintenance all keep
	// running, and reservation-release retries are never stranded.
	spillC, nodeC, groupC, jobC := spillSub.C(), nodeSub.C(), groupSub.C(), jobSub.C()
	for {
		select {
		case raw, ok := <-spillC:
			if !ok {
				spillC = nil
				continue
			}
			g.spilled(raw, spillC, jobC)
		case raw, ok := <-jobC:
			if !ok {
				jobC = nil
				continue
			}
			g.jobEvent(raw)
		case _, ok := <-nodeC:
			if !ok {
				nodeC = nil
				continue
			}
			drain(nodeC, nil) // coalesce membership bursts into one pass
			g.mu.Lock()
			g.nodeCache = nil // membership changed: never place off a stale view
			g.mu.Unlock()
			g.sweepDeadOwners()
			g.gangPass(true) // membership changed: place/roll back groups first
			g.retryParked()
		case _, ok := <-groupC:
			if !ok {
				groupC = nil
				continue
			}
			// One placement publishes several transitions (create, claim,
			// commit) from every group; reconcile the burst once instead of
			// paying a table fan-out per event.
			drain(groupC, nil)
			g.gangPass(true)
			g.retryParked() // parked member tasks may be routable now
		case <-pace.C:
			if g.fair.Len() > 0 {
				g.dispatchFair()
			}
		case <-retry.C:
			g.gangPass(false)
			g.retryParked()
		case <-sweep.C:
			g.sweepPending()
			g.sweepDeadOwners()
			g.jobPass() // at-least-once fallback for dropped job events
		case <-g.stop:
			return
		}
	}
}

// sweepPending rescues spilled tasks whose spill publish was lost: a task
// durably recorded PENDING but claimed by nobody for longer than sweepAge
// is re-placed. The control plane filters server-side (per shard, on its
// own clock, aged from the task's latest transition so a retry's reset to
// PENDING gets its full grace period), and placement delivers through
// Submit(placed=true), whose PENDING→QUEUED CAS claim makes duplicate
// rescues (several globals, or a rescue racing the original publish)
// converge on one owner.
func (g *Global) sweepPending() {
	parked := g.parkedIDs()
	for _, spec := range g.cfg.Ctrl.StalePendingTasks(sweepAge.Nanoseconds()) {
		if parked[spec.ID] {
			continue
		}
		if g.fair.Contains(spec.ID) {
			// Held by the fair queue's contention gate, not lost: rescuing
			// it here would bypass the DRR ordering the gate exists for.
			// (Safe against this scheduler dying with it: a peer global's
			// sweep does not hold it and will rescue.)
			continue
		}
		g.place(spec)
	}
}

// sweepDeadOwners reconciles refcount shares owned by dead nodes: a node
// that crashed with unflushed releases leaves its flushed retains in the
// object table forever, so the control plane subtracts every share
// attributed to it (SweepDeadNodeRefs), publishing GC for objects only the
// dead node kept alive. The sweep is idempotent and retried until it
// reports full coverage (a shard mid-failover returns a negative count),
// so a node is marked swept exactly once the whole table has been walked.
func (g *Global) sweepDeadOwners() {
	for _, n := range g.cfg.Ctrl.Nodes() {
		if n.Alive {
			continue
		}
		g.mu.Lock()
		done := g.refSwept[n.ID]
		g.mu.Unlock()
		if !done && g.cfg.Ctrl.SweepDeadNodeRefs(n.ID) >= 0 {
			g.mu.Lock()
			g.refSwept[n.ID] = true
			g.mu.Unlock()
		}
		g.transferDeadOwner(n.ID)
	}
}

// transferDeadOwner is the owner-death transfer protocol (DESIGN.md §13):
// a node that dies owning live tasks leaves their authoritative state in a
// ledger that no longer exists — the follower table holds whatever the
// owner last flushed. The transfer reads the dead owner's live tasks from
// the follower, releases each tenure with a CAS back into the unowned
// PENDING pool (which bumps the fence sequence, so any straggler delta
// from the dead tenure is consumed), and re-places the task; the
// destination's PENDING→QUEUED claim opens the successor tenure. The CAS
// also makes concurrent transfers from several global schedulers converge:
// exactly one wins each release, and a task that moved on by itself
// (terminal, or re-owned via a consumer's steal) loses the CAS and is
// skipped. The owner is marked transferred only after a complete scan
// processed cleanly; an unreachable shard retries on the next tick.
func (g *Global) transferDeadOwner(owner types.NodeID) {
	g.mu.Lock()
	done := g.ownerSwept[owner]
	g.mu.Unlock()
	if done {
		return
	}
	tasks, complete := g.cfg.Ctrl.ScanTasks(gcs.TaskFilter{Owner: owner})
	for _, st := range tasks {
		// The dead owner's ledger is gone: the follower is the only copy left to CAS.
		if _, ok := g.cfg.Ctrl.ClaimTask(st.Spec.ID,
			[]types.TaskStatus{types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning},
			types.TaskPending, types.NilNodeID); !ok {
			continue // moved on by itself: terminal or already re-owned
		}
		g.cfg.Ctrl.LogEvent(types.Event{Kind: "owner-transfer", Task: st.Spec.ID, Node: owner,
			Detail: fmt.Sprintf("from %s", st.Status)})
		g.place(st.Spec)
	}
	if complete {
		g.mu.Lock()
		g.ownerSwept[owner] = true
		g.mu.Unlock()
	}
}

func (g *Global) retryParked() {
	g.mu.Lock()
	pending := g.parked
	g.parked = nil
	g.mu.Unlock()
	for _, spec := range pending {
		g.place(spec)
	}
}

// parkedIDs snapshots the parked set (used by the sweep to skip tasks it
// is already responsible for).
func (g *Global) parkedIDs() map[types.TaskID]bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[types.TaskID]bool, len(g.parked))
	for id := range g.parked {
		out[id] = true
	}
	return out
}

// place runs one placement: filter to feasible candidates, score locality,
// delegate the choice to the policy, and assign. Placement-group members
// bypass the policy — their node is the one holding their bundle.
// place routes one spec: policy pick, assignment, park on failure. It
// returns the node the task was assigned to (NilNodeID when the task was
// parked, fenced, or routed through the gang path) so the fair-dispatch
// gate can debit the node's headroom before the next heartbeat reports it.
func (g *Global) place(spec types.TaskSpec) types.NodeID {
	if g.jobTerminated(spec.Job) {
		// Fenced: the job is stopping or stopped. The reclaim pass buries
		// the durable record with a typed failure; placing it would
		// resurrect work the tenant already gave up on.
		return types.NilNodeID
	}
	if spec.InGroup() {
		if g.cfg.Reserve == nil {
			// Gang scheduling is not wired: no node will ever hold the
			// bundle reservation, so normal placement would ping-pong the
			// task through the stray-respill path forever. Park it — inert,
			// and correct if a gang-wired scheduler joins later.
			g.park(spec)
			return types.NilNodeID
		}
		g.placeGrouped(spec)
		return types.NilNodeID
	}
	candidates := g.candidates(spec)
	// The soft locality hint is resolved here, before the policy, so its
	// contract ("preferred when alive and feasible") holds under every
	// policy — not just the ones that read NodeSnapshot.Preferred.
	id, ok := types.NilNodeID, false
	for _, c := range candidates {
		if c.Preferred {
			id, ok = c.Info.ID, true
			break
		}
	}
	if !ok {
		id, ok = g.cfg.Policy.Pick(spec, candidates)
	}
	if !ok {
		g.park(spec)
		return types.NilNodeID
	}
	var addr string
	for _, c := range candidates {
		if c.Info.ID == id {
			addr = c.Info.Addr
			break
		}
	}
	if err := g.cfg.Assign(id, addr, spec); err != nil {
		// The node likely died between heartbeat and assignment; park and
		// let the retry pass pick a different one.
		g.park(spec)
		return types.NilNodeID
	}
	g.placed.Add(1)
	g.cfg.Ctrl.LogEvent(types.Event{Kind: "global-place", Task: spec.ID, Node: id, Detail: g.cfg.Policy.Name()})
	return id
}

// drain hands fn (nil: discard) whatever is already queued on a
// subscription channel, so a burst of events collapses into one
// reconciliation pass. It stops on a closed channel (receives from one are
// always ready — an unbounded loop would spin forever, e.g. on a
// subscription torn down by a dead control plane) and bounds the sweep so a
// high-rate publisher cannot hold the loop hostage.
func drain(c <-chan []byte, fn func([]byte)) {
	for i := 0; i < 64; i++ {
		select {
		case raw, ok := <-c:
			if !ok {
				return
			}
			if fn != nil {
				fn(raw)
			}
		default:
			return
		}
	}
}

func (g *Global) park(spec types.TaskSpec) {
	g.parkedCt.Add(1)
	g.mu.Lock()
	if g.parked == nil {
		g.parked = make(map[types.TaskID]types.TaskSpec)
	}
	g.parked[spec.ID] = spec
	g.mu.Unlock()
}

// candidates returns schedulable nodes (alive, not draining) whose total
// capacity can ever satisfy the task, with locality bytes computed from
// the object table. Draining nodes are fenced out here so no new placement
// lands on a node that is shedding its state; their refusal (ErrDraining)
// is only the backstop for assignments already in flight.
// nodeCacheTTL bounds how stale a cached node-table scan may serve
// placement; it is well under any heartbeat interval, so cached load
// fields are no staler than the table's own.
const nodeCacheTTL = 5 * time.Millisecond

// nodes returns the node table, served from the placement cache while
// fresh. Membership events invalidate it immediately (see run), so a
// death verdict is never masked for a TTL.
func (g *Global) nodes() []types.NodeInfo {
	g.mu.Lock()
	if g.nodeCache != nil && time.Since(g.nodeScanned) < nodeCacheTTL {
		nodes := g.nodeCache
		g.mu.Unlock()
		return nodes
	}
	g.mu.Unlock()
	nodes := g.cfg.Ctrl.Nodes()
	g.mu.Lock()
	g.nodeCache, g.nodeScanned = nodes, time.Now()
	g.mu.Unlock()
	return nodes
}

func (g *Global) candidates(spec types.TaskSpec) []NodeSnapshot {
	nodes := g.nodes()
	deps := spec.Deps()
	out := make([]NodeSnapshot, 0, len(nodes))
	for _, n := range nodes {
		if !n.Schedulable() || !spec.Resources.FeasibleOn(n.Total) {
			continue
		}
		snap := NodeSnapshot{Info: n, Preferred: n.ID == spec.Locality}
		for _, dep := range deps {
			if info, ok := g.cfg.Ctrl.GetObject(dep); ok && info.State == types.ObjectReady && info.HasLocation(n.ID) {
				if info.IsSpilledOn(n.ID) {
					snap.SpilledBytes += info.Size
				} else {
					snap.LocalityBytes += info.Size
				}
			}
		}
		out = append(out, snap)
	}
	return out
}
