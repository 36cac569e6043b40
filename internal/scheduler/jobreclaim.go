package scheduler

import (
	"fmt"

	"repro/internal/gcs"
	"repro/internal/types"
)

// Job-aware dispatch and the job reclaim pass (DESIGN.md §14). The global
// scheduler is the natural home for both: it already owns the spill queue
// (so fair-share ordering is a dispatch-order concern, not a new hop) and
// already runs the cluster's reconciliation sweeps (so bulk reclaim is one
// more idempotent pass over durable tables).

// spilled routes one spill event through the fair queue: gather whatever
// else the burst already delivered so DRR has a window to order it, then
// dispatch. An uncontended spill degenerates to push-pop-place. The job
// events already delivered are folded in first: the gate decides
// multi-tenancy from the job cache, and a burst dispatched ahead of a
// waiting CreateJob event would go to node FIFOs ungated.
func (g *Global) spilled(raw []byte, spillC, jobC <-chan []byte) {
	g.pushSpill(raw)
	drain(spillC, g.pushSpill)
	drain(jobC, g.jobEvent)
	g.dispatchFair()
}

// pushSpill queues one spill event's task for fair dispatch.
func (g *Global) pushSpill(raw []byte) {
	if spec, err := gcs.DecodeSpillSpec(raw); err == nil {
		g.fair.Push(spec)
	}
}

// jobEvent folds one job event into the cache; a stop starts reclaiming at
// once.
func (g *Global) jobEvent(raw []byte) {
	if info, err := gcs.DecodeJobEvent(raw); err == nil {
		g.observeJob(info)
		if info.State != types.JobRunning {
			g.jobPass()
		}
	}
}

// fairDispatchDepth is the per-node backlog ceiling the contended-dispatch
// gate enforces: enough pipeline that a node stays fed across a heartbeat
// interval of queue drain (the gate's view of a node refreshes with its
// heartbeat), small enough that DRR ordering in the fair queue — not FIFO
// ordering in node queues — decides who runs next.
const fairDispatchDepth = 6

// dispatchFair drains the fair queue in DRR order. On a single-tenant
// cluster the queue never holds work — every spec is placed (or parked)
// immediately, so untenanted workloads keep their old behavior. In
// multi-tenant mode — two or more Running jobs known, or two or more jobs
// backlogged right now — dispatch is gated on node headroom: specs are
// released only while some schedulable node's effective backlog (heartbeat
// QueueLen plus dispatches newer than that heartbeat) is under
// fairDispatchDepth, and the rest stay DRR-ordered in the fair queue.
// Holding the backlog here instead of in node-local FIFOs is what makes
// the weights real: a tenant that floods first must not bury a tenant that
// submits second at the bottom of node queues. The pace tick re-runs the
// gate as heartbeats absorb earlier dispatches, so the queue still drains
// (work conservation at pace-tick granularity, exact once contention
// ends).
func (g *Global) dispatchFair() {
	gated := g.fair.Jobs() >= 2 || g.runningJobs() >= 2
	for {
		if g.fair.Len() == 0 {
			return
		}
		if gated && !g.fairHeadroom() {
			return
		}
		spec, ok := g.fair.Pop()
		if !ok {
			return
		}
		if node := g.place(spec); !node.IsNil() {
			g.fairDebits[node] = append(g.fairDebits[node], g.cfg.Ctrl.NowNs())
		}
	}
}

// runningJobs counts Running job records in the cache — the multi-tenancy
// signal that keeps the dispatch gate engaged even while only one tenant
// happens to be backlogged (the other may submit any moment and must not
// land behind a flood in node FIFOs).
func (g *Global) runningJobs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, j := range g.jobCache {
		if j.State == types.JobRunning {
			n++
		}
	}
	return n
}

// fairHeadroom reports whether any schedulable node can absorb another
// fair dispatch, pruning debits that the node's latest heartbeat has
// already folded into its reported QueueLen (and dropping bookkeeping for
// nodes no longer in the table).
func (g *Global) fairHeadroom() bool {
	nodes := g.schedulableNodes()
	seen := make(map[types.NodeID]bool, len(nodes))
	open := false
	for _, n := range nodes {
		seen[n.ID] = true
		pending := g.fairDebits[n.ID][:0]
		for _, ts := range g.fairDebits[n.ID] {
			if ts > n.LastSeen {
				pending = append(pending, ts)
			}
		}
		if len(pending) == 0 {
			delete(g.fairDebits, n.ID)
		} else {
			g.fairDebits[n.ID] = pending
		}
		if n.QueueLen+len(pending) < fairDispatchDepth {
			open = true
		}
	}
	for id := range g.fairDebits {
		if !seen[id] {
			delete(g.fairDebits, id)
		}
	}
	return open
}

// jobWeight resolves a job's fair-share weight from the cache, healing a
// miss with one record fetch. Unknown jobs weigh 1 so their tasks drain
// rather than starve.
func (g *Global) jobWeight(id types.JobID) int {
	if id.IsNil() {
		return 1
	}
	g.mu.Lock()
	info, ok := g.jobCache[id]
	g.mu.Unlock()
	if !ok {
		fetched, found := g.cfg.Ctrl.GetJob(id)
		if !found {
			return 1
		}
		g.observeJob(fetched)
		info = fetched
	}
	return info.Spec.FairWeight()
}

// observeJob folds a job event (or fetched record) into the cache.
func (g *Global) observeJob(info types.JobInfo) {
	g.mu.Lock()
	g.jobCache[info.Spec.ID] = info
	g.mu.Unlock()
}

// jobTerminated reports whether the task's job is stopping or stopped —
// the dispatch fence that keeps reclaim from racing placement. Cache
// misses heal with one record fetch; a job with no record is NOT treated
// as terminated (forgiving reads: a dead control-plane shard must not
// silently drop every tenant's dispatches).
func (g *Global) jobTerminated(id types.JobID) bool {
	if id.IsNil() {
		return false
	}
	g.mu.Lock()
	info, ok := g.jobCache[id]
	g.mu.Unlock()
	if !ok {
		fetched, found := g.cfg.Ctrl.GetJob(id)
		if !found {
			return false
		}
		g.observeJob(fetched)
		info = fetched
	}
	return info.State != types.JobRunning
}

// ctrlComplete reports whether reads against the control plane currently
// see every shard — the same gate the chaos invariants use. Declaring a
// job drained (or purging its records) off a partial view could strand or
// resurrect state on the unreachable shard.
func (g *Global) ctrlComplete() bool {
	if p, ok := g.cfg.Ctrl.(gcs.Pinger); ok {
		return p.Ping()
	}
	return true
}

// jobPass reconciles every job record: Stopping jobs advance through the
// reclaim pipeline, Stopped jobs are purged once their grace period
// lapses. Runs on job events and the sweep tick, and is
// idempotent — every step re-derives its inputs from durable tables, so a
// crash (or shard failover) mid-pass is retried by the next one.
func (g *Global) jobPass() {
	for _, j := range g.cfg.Ctrl.Jobs() {
		g.observeJob(j)
		switch {
		case j.State == types.JobStopping:
			g.reclaimJob(j)
		case j.State == types.JobStopped:
			g.purgeJob(j)
		}
	}
}

// reclaimJob advances one Stopping job: drop its undispatched backlog,
// fail its live tasks (through owner-fenced ledger deltas, so a straggler
// flush from the buried tenure cannot resurrect them), force-release the
// objects its tasks produced, and — only when a complete view shows zero
// live tasks and every release applied — commit Stopping→Stopped.
func (g *Global) reclaimJob(j types.JobInfo) {
	job := j.Spec.ID
	// Backlog this scheduler holds: fair-queue entries and parked specs.
	// Their durable records are PENDING; the bury below covers them.
	g.fair.DropJob(job)
	g.mu.Lock()
	for id, spec := range g.parked {
		if spec.Job == job {
			delete(g.parked, id)
		}
	}
	g.mu.Unlock()

	viewOK := g.ctrlComplete()
	tasks, complete := g.cfg.Ctrl.ScanTasks(gcs.TaskFilter{Job: job})
	live := 0
	nodes := g.schedulableNodes() // shared across members: one scan, not one per task
	for _, st := range tasks {
		if st.Status.Terminal() {
			continue
		}
		live++
		g.failJobTask(st, nodes)
	}
	released := g.cfg.Ctrl.ForceReleaseObjects(g.jobObjectIDs(tasks))
	if viewOK && complete && live == 0 && len(released) == 0 && g.ctrlComplete() {
		if g.cfg.Ctrl.CASJobState(job, []types.JobState{types.JobStopping}, types.JobStopped) {
			g.cfg.Ctrl.LogEvent(types.Event{Kind: "job-reclaimed", Detail: job.String()})
		}
	}
}

// failJobTask buries one live task of a stopping job, preferring the node
// the follower table last saw it on (its owner, if running) and falling
// back across every schedulable node, mirroring failMember.
func (g *Global) failJobTask(st types.TaskState, nodes []types.NodeInfo) {
	if g.cfg.FailTask == nil {
		return
	}
	reason := types.ReasonJobStopped + st.Spec.Job.String()
	ordered := make([]types.NodeInfo, 0, len(nodes))
	for _, n := range nodes {
		if n.ID == st.Node {
			ordered = append([]types.NodeInfo{n}, ordered...)
		} else {
			ordered = append(ordered, n)
		}
	}
	for _, n := range ordered {
		if err := g.cfg.FailTask(n.ID, n.Addr, st.Spec, reason); err == nil {
			return
		}
	}
	// No node reachable: the record stays live and the next pass retries.
}

// jobObjectIDs derives the object IDs attributed to the job through its
// tasks' producer edges — return objects and puts alike. Re-derived from
// durable tables on every pass, so a crash between reclaim phases never
// loses track of an object.
func (g *Global) jobObjectIDs(tasks []types.TaskState) []types.ObjectID {
	if len(tasks) == 0 {
		return nil
	}
	producers := make(map[types.TaskID]bool, len(tasks))
	for _, st := range tasks {
		producers[st.Spec.ID] = true
	}
	var ids []types.ObjectID
	for _, o := range g.cfg.Ctrl.Objects() {
		if producers[o.Producer] {
			ids = append(ids, o.ID)
		}
	}
	return ids
}

// purgeJob retires a Stopped job's task and object records once the grace
// period has lapsed: the bulk caller of the one mechanism that ends every
// record's life (gcs.API.Retire, DESIGN.md §17). The reclaim pass left the
// job's tasks terminal and its objects unreferenced, so once their copies
// drain everything the job produced is dead and goes, each consumer before
// its producer. What the retire cannot take is either still draining —
// wait for the GC — or pinned: the task purge that follows removes whatever
// job records are left and drops their pins, and a last retire takes what
// only those held. An object a record outside the job still takes by
// reference outlives the job, with that record.
// The job record itself survives, moved to Purged, as the durable
// tombstone that fences replays.
func (g *Global) purgeJob(j types.JobInfo) {
	if g.cfg.JobGrace < 0 {
		return
	}
	job := j.Spec.ID
	now := g.cfg.Ctrl.NowNs()
	if j.StoppedNs == 0 || now-j.StoppedNs < g.cfg.JobGrace.Nanoseconds() {
		return
	}
	if !g.ctrlComplete() {
		return
	}
	tasks, complete := g.cfg.Ctrl.ScanTasks(gcs.TaskFilter{Job: job})
	if !complete {
		return
	}
	objects := g.jobObjectIDs(tasks)
	// Idempotent, and what refires the GC publish for a copy whose first
	// one a crash dropped: after the job committed Stopped nothing else does.
	if unreleased := g.cfg.Ctrl.ForceReleaseObjects(objects); len(unreleased) > 0 {
		return
	}
	if res := g.cfg.Ctrl.Retire(objects); res.Located+res.Referenced+len(res.Again) > 0 {
		return // copies not drained yet: the GC is still working, retry
	}
	// The job's tasks are all terminal by now (Stopped commits only over a
	// complete view with none live); the ones the retire took read as gone.
	var done []types.TaskID
	for _, st := range tasks {
		if st.Status.Terminal() {
			done = append(done, st.Spec.ID)
		}
	}
	if gcs.PurgeAndUnpin(g.cfg.Ctrl, done) > 0 {
		g.cfg.Ctrl.LogEvent(types.Event{Kind: "job-purge-tasks", Detail: job.String()})
	}
	g.cfg.Ctrl.Retire(objects) // what only the job's own leftover records pinned
	if g.cfg.Ctrl.CASJobState(job, []types.JobState{types.JobStopped}, types.JobPurged) {
		g.cfg.Ctrl.LogEvent(types.Event{Kind: "job-purged",
			Detail: fmt.Sprintf("%s tasks=%d", job, len(tasks))})
	}
}
