package cluster

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/node"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

// ctrlProbe wraps one node's control plane. It counts every call made on a
// driver's submit path, the births-carrying ModifyTaskStates calls, the
// EnsureObjects calls, the location calls, the events and the Retire
// calls, and it records every task and object a ledger flush names. While
// held it blocks the task ledger's flush calls (ModifyTaskStates,
// EnsureObjects) — and, if asked, the reference ledger's
// (ModifyObjectRefCounts) — until released.
type ctrlProbe struct {
	gcs.API
	onSubmit, births, ensures atomic.Int64
	// adds and removes count the location calls.
	adds, removes atomic.Int64
	// events and retires count LogEvent and Retire calls; waiting counts
	// the calls blocked by a hold.
	events, retires, waiting atomic.Int64
	// refuseBirths makes the task table refuse every birth, as a shard that
	// is down does, so the births stay owed while the flushers run.
	refuseBirths atomic.Bool

	mu       sync.Mutex
	hold     chan struct{}
	holdRefs bool
	// holdDeltas narrows a hold to the ModifyTaskStates calls that carry
	// no birth (holdDeltaFlush).
	holdDeltas bool
	// flushedTasks and flushedObjects count the entries each task and
	// object had in ModifyTaskStates and ModifyObjectRefCounts calls.
	flushedTasks   map[types.TaskID]int
	flushedObjects map[types.ObjectID]int
	// finished, when set, is called with the task of each FINISHED delta a
	// ledger flush sends, before the table has it.
	finished func(types.TaskID)
}

// call counts a call whose stack passes through the driver's submit.
func (p *ctrlProbe) call() {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "core.(*caller).submit") {
			p.onSubmit.Add(1)
			return
		}
		if !more {
			return
		}
	}
}

// holdFlush makes the task ledger's flush calls, and with refs the
// reference ledger's too, block until releaseFlush.
func (p *ctrlProbe) holdFlush(refs bool) {
	p.mu.Lock()
	p.hold, p.holdRefs, p.holdDeltas = make(chan struct{}), refs, false
	p.mu.Unlock()
}

// holdDeltaFlush makes the task ledger's ModifyTaskStates calls that carry
// no birth, and with refs the reference ledger's calls, block until
// releaseFlush: a task-ledger flush held there has already written its
// births and announced what it announces.
func (p *ctrlProbe) holdDeltaFlush(refs bool) {
	p.mu.Lock()
	p.hold, p.holdRefs, p.holdDeltas = make(chan struct{}), refs, true
	p.mu.Unlock()
}

func (p *ctrlProbe) releaseFlush() {
	p.mu.Lock()
	if p.hold != nil {
		close(p.hold)
		p.hold = nil
	}
	p.mu.Unlock()
}

// held blocks a call while a hold covers it: refs marks the reference
// ledger's calls, births a call that carries a birth.
func (p *ctrlProbe) held(refs, births bool) {
	p.mu.Lock()
	hold := p.hold
	if refs && !p.holdRefs || p.holdDeltas && births {
		hold = nil
	}
	p.mu.Unlock()
	if hold != nil {
		p.waiting.Add(1)
		<-hold
		p.waiting.Add(-1)
	}
}

func (p *ctrlProbe) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	p.call()
	p.mu.Lock()
	if p.flushedObjects == nil {
		p.flushedObjects = make(map[types.ObjectID]int)
	}
	for id := range deltas {
		p.flushedObjects[id]++
	}
	p.mu.Unlock()
	p.held(true, false)
	return p.API.ModifyObjectRefCounts(node, deltas, op)
}

func (p *ctrlProbe) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	p.call()
	births := false
	p.mu.Lock()
	if p.flushedTasks == nil {
		p.flushedTasks = make(map[types.TaskID]int)
	}
	for _, d := range deltas {
		births = births || d.Spec != nil
		p.flushedTasks[d.ID]++
	}
	finished := p.finished
	p.mu.Unlock()
	for _, d := range deltas {
		if finished != nil && d.Status == types.TaskFinished {
			finished(d.ID)
		}
	}
	if births {
		p.births.Add(1)
		if p.refuseBirths.Load() {
			refused := make([]types.TaskID, len(deltas))
			for i, d := range deltas {
				refused[i] = d.ID
			}
			return refused
		}
	}
	p.held(false, births)
	return p.API.ModifyTaskStates(node, deltas, op)
}

// flushed reports how many ledger-flush entries named any of tasks or any
// of objects.
func (p *ctrlProbe) flushed(tasks []types.TaskID, objects []types.ObjectID) (taskEntries, objectEntries int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range tasks {
		taskEntries += p.flushedTasks[id]
	}
	for _, id := range objects {
		objectEntries += p.flushedObjects[id]
	}
	return taskEntries, objectEntries
}

func (p *ctrlProbe) EnsureObjects(producers map[types.ObjectID]types.TaskID) []types.ObjectID {
	p.call()
	p.held(false, false)
	p.ensures.Add(1)
	return p.API.EnsureObjects(producers)
}

// Ping forwards to a control plane that can probe its liveness.
func (p *ctrlProbe) Ping() bool {
	if pg, ok := p.API.(gcs.Pinger); ok {
		return pg.Ping()
	}
	return true
}

func (p *ctrlProbe) NowNs() int64 {
	p.call()
	return p.API.NowNs()
}

func (p *ctrlProbe) GetTask(id types.TaskID) (types.TaskState, bool) {
	p.call()
	return p.API.GetTask(id)
}

func (p *ctrlProbe) ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool) {
	p.call()
	return p.API.ClaimTask(id, from, to, owner)
}

func (p *ctrlProbe) ScanTasks(f gcs.TaskFilter) ([]types.TaskState, bool) {
	p.call()
	return p.API.ScanTasks(f)
}

func (p *ctrlProbe) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	p.call()
	p.adds.Add(1)
	p.API.AddObjectLocation(id, node, size)
}

func (p *ctrlProbe) RemoveObjectLocation(id types.ObjectID, node types.NodeID) {
	p.call()
	p.removes.Add(1)
	p.API.RemoveObjectLocation(id, node)
}

func (p *ctrlProbe) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	p.call()
	return p.API.GetObject(id)
}

func (p *ctrlProbe) Objects() []types.ObjectInfo {
	p.call()
	return p.API.Objects()
}

func (p *ctrlProbe) SweepDeadNodeRefs(node types.NodeID) int {
	p.call()
	return p.API.SweepDeadNodeRefs(node)
}

func (p *ctrlProbe) MarkObjectSpilled(id types.ObjectID, node types.NodeID, spilled bool) {
	p.call()
	p.API.MarkObjectSpilled(id, node, spilled)
}

func (p *ctrlProbe) CreatePlacementGroup(spec types.PlacementGroupSpec) bool {
	p.call()
	return p.API.CreatePlacementGroup(spec)
}

func (p *ctrlProbe) GetPlacementGroup(id types.PlacementGroupID) (types.PlacementGroupInfo, bool) {
	p.call()
	return p.API.GetPlacementGroup(id)
}

func (p *ctrlProbe) PlacementGroups() []types.PlacementGroupInfo {
	p.call()
	return p.API.PlacementGroups()
}

func (p *ctrlProbe) CASPlacementGroupState(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64) bool {
	p.call()
	return p.API.CASPlacementGroupState(id, from, to, bundleNodes, claim)
}

func (p *ctrlProbe) CreateJob(spec types.JobSpec) bool {
	p.call()
	return p.API.CreateJob(spec)
}

func (p *ctrlProbe) GetJob(id types.JobID) (types.JobInfo, bool) {
	p.call()
	return p.API.GetJob(id)
}

func (p *ctrlProbe) Jobs() []types.JobInfo {
	p.call()
	return p.API.Jobs()
}

func (p *ctrlProbe) CASJobState(id types.JobID, from []types.JobState, to types.JobState) bool {
	p.call()
	return p.API.CASJobState(id, from, to)
}

func (p *ctrlProbe) ForceReleaseObjects(ids []types.ObjectID) []types.ObjectID {
	p.call()
	return p.API.ForceReleaseObjects(ids)
}

func (p *ctrlProbe) Retire(objects []types.ObjectID) gcs.Retired {
	p.call()
	p.retires.Add(1)
	return p.API.Retire(objects)
}

func (p *ctrlProbe) PurgeTasks(ids []types.TaskID) (args []types.ObjectID, left []types.TaskID) {
	p.call()
	return p.API.PurgeTasks(ids)
}

func (p *ctrlProbe) PublishSpill(spec types.TaskSpec) {
	p.call()
	p.API.PublishSpill(spec)
}

func (p *ctrlProbe) RegisterNode(info types.NodeInfo) {
	p.call()
	p.API.RegisterNode(info)
}

func (p *ctrlProbe) Heartbeat(id types.NodeID, queueLen int, avail types.Resources, store types.StoreStats) {
	p.call()
	p.API.Heartbeat(id, queueLen, avail, store)
}

func (p *ctrlProbe) MarkNodeDead(id types.NodeID) {
	p.call()
	p.API.MarkNodeDead(id)
}

func (p *ctrlProbe) CASNodeState(id types.NodeID, from []types.NodeState, to types.NodeState) bool {
	p.call()
	return p.API.CASNodeState(id, from, to)
}

func (p *ctrlProbe) GetNode(id types.NodeID) (types.NodeInfo, bool) {
	p.call()
	return p.API.GetNode(id)
}

func (p *ctrlProbe) Nodes() []types.NodeInfo {
	p.call()
	return p.API.Nodes()
}

func (p *ctrlProbe) LogEvent(ev types.Event) {
	p.call()
	p.events.Add(1)
	p.API.LogEvent(ev)
}

func (p *ctrlProbe) Events() []types.Event {
	p.call()
	return p.API.Events()
}

func (p *ctrlProbe) Subscribe(topic gcs.Topic, id [types.IDSize]byte) gcs.Sub {
	p.call()
	return p.API.Subscribe(topic, id)
}

// birthFuncs registers a no-op and a task that blocks until open is called.
func birthFuncs(t *testing.T) (reg *core.Registry, open func()) {
	reg = core.NewRegistry()
	gate := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	reg.Register("births.noop", func(*core.TaskContext, [][]byte) ([][]byte, error) { return [][]byte{nil}, nil })
	reg.Register("births.gated", func(*core.TaskContext, [][]byte) ([][]byte, error) {
		<-gate
		return [][]byte{nil}, nil
	})
	return reg, open
}

// probedNode boots one node over ctrl behind a probe. Heartbeats are off,
// so the node's own loops call the control plane only to flush.
func probedNode(t *testing.T, ctrl gcs.API, nw transport.Network, reg *core.Registry) (*node.Node, *ctrlProbe) {
	t.Helper()
	probe := &ctrlProbe{API: ctrl}
	n, err := node.New(node.Config{
		Resources: types.CPU(4), Network: nw, ListenAddr: "births-node", Ctrl: probe,
		Registry: reg, SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.releaseFlush(); n.Shutdown() })
	return n, probe
}

// runNoop submits one no-op through d and gets its result.
func runNoop(t *testing.T, d *core.Client) core.ObjectRef {
	t.Helper()
	return runNoopWith(t, d)
}

// runNoopWith is runNoop with options.
func runNoopWith(t *testing.T, d *core.Client, opts ...core.Option) core.ObjectRef {
	t.Helper()
	refs, err := d.SubmitOpts("births.noop", nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := d.Get(ctx, refs[0]); err != nil {
		t.Fatal(err)
	}
	return refs[0]
}

// TestLocalSubmitControlPlaneBudget pins what a locally born task costs the
// control plane: nothing while the driver submits it, and one birth in the
// owner's batched flush, which carries its return's producer edge.
func TestLocalSubmitControlPlaneBudget(t *testing.T) {
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	n.TaskLedger().Flush()
	probe.onSubmit.Store(0)
	probe.births.Store(0)
	probe.ensures.Store(0)

	ref := runNoop(t, d)
	if got := probe.onSubmit.Load(); got != 0 {
		t.Fatalf("a warmed local submit made %d control-plane calls, want 0", got)
	}
	// The ledger lets go of the task once its FINISHED delta landed; the
	// executor stamps it just after its Put, which a Get may have read.
	landed(t, n, ref)
	if st, ok := probe.API.GetTask(ref.Task); !ok || st.Status != types.TaskFinished || st.Owner != n.ID() {
		t.Fatalf("record after the flush: %+v, %v", st, ok)
	}
	if info, ok := probe.API.GetObject(ref.ID); !ok || info.Producer != ref.Task {
		t.Fatalf("return's record after the flush: %+v, %v", info, ok)
	}
	if b, e := probe.births.Load(), probe.ensures.Load(); b != 1 || e != 0 {
		t.Fatalf("the task reached the table in %d births-carrying flushes and %d EnsureObjects, want 1 and 0", b, e)
	}
}

// TestDemandReturnedBeforeReaderWakes: in a serial stream of tasks that
// each demand the whole node, no task parks or queues behind a finished
// one. A task gives its demand back once its function returns, before its
// result wakes the driver, so the next submit finds the node free and
// dispatches at once, however far the finished task's executor lags.
func TestDemandReturnedBeforeReaderWakes(t *testing.T) {
	reg, _ := birthFuncs(t)
	n, _ := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	whole := core.WithResources(types.CPU(4))
	parks := n.Metrics().Counter("scheduler.tasks.parked")
	parked := parks.Value()
	ctx := context.Background()
	for i := range 200 {
		refs, err := d.SubmitOpts("births.noop", nil, whole)
		if err != nil {
			t.Fatal(err)
		}
		if q := n.Scheduler().QueueLen(); q != 0 {
			t.Fatalf("task %d: runnable behind a finished task", i+1)
		}
		if _, err := d.Get(ctx, refs[0]); err != nil {
			t.Fatal(err)
		}
		d.Release(refs[0])
	}
	if got := parks.Value() - parked; got != 0 {
		t.Fatalf("%d tasks parked", got)
	}
}

// TestWaitOnBareIDOfUnflushedTask: a Wait on the bare return ID of a task
// just born here, whose owner's flush is held back, must not read the
// missing records as retired before they were absent for
// types.RetiredAfter — the owner's ledger holds them, and a ref read
// elsewhere waits that long for its birth.
func TestWaitOnBareIDOfUnflushedTask(t *testing.T) {
	reg, open := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	defer open() // ahead of the node's shutdown, should the test fail first
	d := core.NewClient(n)
	runNoop(t, d)
	n.TaskLedger().Flush()

	// Both of the owner's ledgers are held: a reference flush would make
	// the return's record too.
	probe.holdFlush(true)
	refs, err := d.SubmitOpts("births.gated", nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := []core.ObjectRef{{ID: refs[0].ID}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ready, _, err := d.Wait(ctx, bare, 1, types.RetiredAfter)
	if err != nil || len(ready) != 0 {
		t.Fatalf("Wait on a held-back task's bare return ID: ready %d, %v; want a timeout", len(ready), err)
	}
	probe.releaseFlush()
	open()
	if ready, _, err = d.Wait(ctx, bare, 1, -1); err != nil || len(ready) != 1 {
		t.Fatalf("Wait after the flush: ready %d, %v", len(ready), err)
	}
}

// drainedAndProposed releases ref, sends the release in an explicit
// reference flush — a timed one keeps it at home while the task's birth is
// owed, as a borrow flush does not — and waits until the node has dropped
// its copy and queued the object for retiring.
func drainedAndProposed(t *testing.T, n *node.Node, d *core.Client, ref core.ObjectRef) {
	t.Helper()
	d.Release(ref)
	n.Lifetime().Tracker().Flush()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if q, _ := n.Lifetime().Proposals(); q > 0 && !n.Store().Contains(ref.ID) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the released result was not reclaimed and proposed")
		}
		time.Sleep(time.Millisecond)
	}
}

// landed waits until the node's task ledger lets go of ref's task, which
// it does once the task's birth and its FINISHED delta landed.
func landed(t *testing.T, n *node.Node, ref core.ObjectRef) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.TaskLedger().Owns(ref.Task) {
		if time.Now().After(deadline) {
			t.Fatal("the task's birth and final state did not land")
		}
		n.TaskLedger().Flush()
		time.Sleep(time.Millisecond)
	}
}

// noRecords fails unless the table holds no record of ref's task and
// object, once the node's due proposals were made.
func noRecords(t *testing.T, n *node.Node, ctrl gcs.API, ref core.ObjectRef) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n.Lifetime().RetireDue(time.Now().Add(time.Hour))
		_, task := ctrl.GetTask(ref.Task)
		_, obj := ctrl.GetObject(ref.ID)
		if !task && !obj {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("records left behind: task %v, object %v", task, obj)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBirthRacesRetirement: a task finishes and its result is released,
// reclaimed and proposed for retiring while its birth is held back. The
// proposal waits for the birth, so the table ends with no record of the
// task or its return — not a FINISHED record whose output was retired
// before the birth recreated the object's record. The second case runs the
// race on a two-shard control plane whose shard holding the task's record
// is down: the birth that shard refused keeps the return's producer edge,
// the task's state and the proposal waiting until it lands after the
// restart.
func TestBirthRacesRetirement(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		reg, _ := birthFuncs(t)
		store := gcs.NewStore(4)
		n, probe := probedNode(t, store, transport.NewInproc(0), reg)
		d := core.NewClient(n)
		runNoop(t, d)
		n.TaskLedger().Flush()

		probe.holdFlush(false)
		ref := runNoop(t, d)
		// The reference is counted in the table before its release, so the
		// result takes the table's path: released before anything about it
		// left the node, it would be collected at home, with no proposal.
		n.Lifetime().Tracker().Flush()
		drainedAndProposed(t, n, d, ref)
		// RetireDue lands the owed births first, so it waits for the flush.
		retiring := make(chan struct{})
		go func() {
			defer close(retiring)
			n.Lifetime().RetireDue(time.Now().Add(time.Hour))
		}()
		if _, ok := store.GetObject(ref.ID); !ok {
			t.Fatal("the return's record was retired ahead of its producer's birth")
		}
		probe.releaseFlush()
		<-retiring
		landed(t, n, ref)
		noRecords(t, n, store, ref)
	})
	t.Run("shard-down", func(t *testing.T) {
		reg, _ := birthFuncs(t)
		nw := transport.NewInproc(0)
		sup, err := gcs.NewSupervisor(gcs.SupervisorConfig{Shards: 2, Network: nw, MapAddr: "births-gcs", DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sup.Close)
		ctrl, err := gcs.NewSharded(gcs.ShardedConfig{Network: nw, MapAddr: "births-gcs", RetryWindow: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ctrl.Close)
		n, probe := probedNode(t, ctrl, nw, reg)
		d := core.NewClient(n)
		runNoop(t, d)
		n.TaskLedger().Flush()

		probe.holdFlush(false)
		var ref core.ObjectRef
		for {
			// A task whose record and return live on different shards.
			ref = runNoop(t, d)
			if sup.Map().ShardForKey(gcs.TaskKey(ref.Task)) != sup.Map().ShardForKey(gcs.ObjectKey(ref.ID)) {
				break
			}
		}
		// Nothing of the reference ledger's may wait for the shard: its parked
		// batches would hold back the release below.
		n.Lifetime().Tracker().Flush()
		down := sup.Map().ShardForKey(gcs.TaskKey(ref.Task))
		sup.KillShard(down)
		drainedAndProposed(t, n, d, ref)
		probe.releaseFlush()
		n.TaskLedger().Flush() // the birth is refused: its shard is down
		n.Lifetime().RetireDue(time.Now().Add(time.Hour))
		info, ok := ctrl.GetObject(ref.ID)
		if !ok {
			t.Fatal("the return's record was retired ahead of its producer's birth")
		}
		if !info.Producer.IsNil() {
			t.Fatalf("the producer edge of a refused birth landed: %+v", info)
		}
		if err := sup.RestartShard(down); err != nil {
			t.Fatal(err)
		}
		landed(t, n, ref)
		noRecords(t, n, ctrl, ref)
	})
}
