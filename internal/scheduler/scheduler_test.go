package scheduler

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

func tNode(i uint64) types.NodeID {
	return types.NodeID(types.DeriveTaskID(types.NilTaskID, 9000+i))
}

func tSpec(i uint64, res types.Resources, deps ...types.ObjectID) types.TaskSpec {
	args := make([]types.Arg, 0, len(deps))
	for _, d := range deps {
		args = append(args, types.RefArg(d))
	}
	if res == nil {
		res = types.CPU(1)
	}
	return types.TaskSpec{
		ID:         types.DeriveTaskID(types.NilTaskID, i),
		Function:   "f",
		NumReturns: 1,
		Resources:  res,
		Args:       args,
	}
}

// testLocal builds a local scheduler whose Exec records executions.
type execLog struct {
	mu    sync.Mutex
	order []types.TaskID
	seen  map[types.TaskID]bool
	ch    chan types.TaskID
}

func newExecLog() *execLog {
	return &execLog{seen: make(map[types.TaskID]bool), ch: make(chan types.TaskID, 256)}
}

func (e *execLog) exec(led *lifetime.TaskLedger, store *objectstore.Store) func(context.Context, types.TaskSpec, [][]byte) {
	return func(ctx context.Context, spec types.TaskSpec, args [][]byte) {
		e.mu.Lock()
		e.order = append(e.order, spec.ID)
		e.seen[spec.ID] = true
		e.mu.Unlock()
		// Emulate the worker: store returns, mark finished.
		for i := 0; i < spec.NumReturns; i++ {
			_ = store.Put(spec.ReturnID(i), []byte("r"))
		}
		led.Transition(spec.ID, types.TaskFinished, types.NilWorkerID, "")
		e.ch <- spec.ID
	}
}

func buildLocal(t *testing.T, total types.Resources, spillThreshold int) (*Local, *execLog, *gcs.Store, *objectstore.Store) {
	t.Helper()
	ctrl := gcs.NewStore(4)
	nid := tNode(1)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: total})
	store := objectstore.New(nid, ctrl, 0)
	log := newExecLog()
	led := ledgertest.New(ctrl, nid)
	l := NewLocal(LocalConfig{
		Node:           nid,
		Total:          total,
		Ctrl:           ctrl,
		Store:          store,
		Ledger:         led,
		SpillThreshold: spillThreshold,
	})
	l.SetExec(log.exec(led, store))
	l.Start()
	t.Cleanup(l.Stop)
	return l, log, ctrl, store
}

func waitExec(t *testing.T, log *execLog, want types.TaskID) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case id := <-log.ch:
			if id == want {
				return
			}
		case <-deadline:
			t.Fatalf("task %v never executed", want)
		}
	}
}

func TestImmediateDispatch(t *testing.T) {
	l, log, _, _ := buildLocal(t, types.CPU(2), SpillNever)
	spec := tSpec(1, nil)
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
}

func TestDependencyGatesDispatch(t *testing.T) {
	l, log, ctrl, store := buildLocal(t, types.CPU(2), SpillNever)
	dep := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 777), 0)
	ctrl.EnsureObject(dep, types.DeriveTaskID(types.NilTaskID, 777))
	spec := tSpec(2, nil, dep)
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-log.ch:
		t.Fatal("task ran before its dependency existed")
	case <-time.After(50 * time.Millisecond):
	}
	if l.WaitingLen() != 1 {
		t.Fatalf("waiting = %d", l.WaitingLen())
	}
	// Satisfy the dependency locally.
	if err := store.Put(dep, []byte("d")); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
}

func TestInfeasibleTaskSpills(t *testing.T) {
	l, _, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
	sub := ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	defer sub.Close()
	spec := tSpec(3, types.GPU(1, 1)) // no GPU on this node
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	select {
	case raw := <-sub.C():
		got, err := gcs.DecodeSpillSpec(raw)
		if err != nil || got.ID != spec.ID {
			t.Fatalf("bad spill payload: %v %v", got.ID, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("infeasible task did not spill")
	}
	_, spilled, _ := l.Stats()
	if spilled != 1 {
		t.Fatalf("spilled = %d", spilled)
	}
}

func TestSpillAlwaysForwardsEverything(t *testing.T) {
	l, _, ctrl, _ := buildLocal(t, types.CPU(2), SpillAlways)
	sub := ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	defer sub.Close()
	for i := uint64(10); i < 14; i++ {
		if _, err := l.Submit(tSpec(i, nil), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-sub.C():
		case <-time.After(2 * time.Second):
			t.Fatalf("spill %d missing", i)
		}
	}
}

func TestPlacedTaskNeverSpills(t *testing.T) {
	l, log, _, _ := buildLocal(t, types.CPU(2), SpillAlways)
	spec := tSpec(20, nil)
	if _, err := l.Submit(spec, true); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
}

func TestResourceBoundedConcurrency(t *testing.T) {
	ctrl := gcs.NewStore(4)
	nid := tNode(2)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(2)})
	store := objectstore.New(nid, ctrl, 0)
	var running, peak atomic.Int32
	done := make(chan struct{}, 64)
	led := ledgertest.New(ctrl, nid)
	l := NewLocal(LocalConfig{Node: nid, Total: types.CPU(2), Ctrl: ctrl, Store: store, Ledger: led, SpillThreshold: SpillNever})
	l.SetExec(func(ctx context.Context, spec types.TaskSpec, args [][]byte) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		running.Add(-1)
		led.Transition(spec.ID, types.TaskFinished, types.NilWorkerID, "")
		done <- struct{}{}
	})
	l.Start()
	defer l.Stop()
	for i := uint64(30); i < 42; i++ {
		if _, err := l.Submit(tSpec(i, types.CPU(1)), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d tasks finished", i)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("resource accounting violated: %d concurrent tasks on 2 CPUs", p)
	}
}

func TestDuplicateSubmissionDropped(t *testing.T) {
	l, log, _, _ := buildLocal(t, types.CPU(2), SpillNever)
	spec := tSpec(50, nil)
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
	// Outputs intact: duplicate must not re-execute.
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-log.ch:
		t.Fatalf("duplicate execution of %v", id)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestReplayAfterOutputLoss(t *testing.T) {
	l, log, _, store := buildLocal(t, types.CPU(2), SpillNever)
	spec := tSpec(51, nil)
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
	// Lose the output; resubmission must re-execute (lineage replay).
	store.DropAll()
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
}

func TestStopRejectsSubmissions(t *testing.T) {
	l, _, _, _ := buildLocal(t, types.CPU(1), SpillNever)
	l.Stop()
	if _, err := l.Submit(tSpec(60, nil), false); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
}

// --- resource pool ---

// testPool makes a pool of total and a resolver of demands against its
// name table.
func testPool(total types.Resources) (*resourcePool, func(types.Resources) *demand) {
	names := newResNames(total)
	return newResourcePool(names, names.vector(total)), func(r types.Resources) *demand {
		d := names.demand(r)
		return &d
	}
}

func TestResourcePoolAcquireRelease(t *testing.T) {
	p, dem := testPool(types.CPU(2))
	if !p.tryAcquire(dem(types.CPU(2))) {
		t.Fatal("acquire failed")
	}
	if p.tryAcquire(dem(types.CPU(1))) {
		t.Fatal("overcommitted")
	}
	p.release(dem(types.CPU(2)))
	if !p.tryAcquire(dem(types.CPU(1))) {
		t.Fatal("release lost capacity")
	}
}

func TestResourcePoolBlockingAcquire(t *testing.T) {
	p, dem := testPool(types.CPU(1))
	p.tryAcquire(dem(types.CPU(1)))
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- p.acquireBlocking(dem(types.CPU(1)), stop, 0) }()
	time.Sleep(20 * time.Millisecond)
	p.release(dem(types.CPU(1)))
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("blocking acquire failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking acquire hung")
	}
}

func TestResourcePoolAcquireAbort(t *testing.T) {
	p, dem := testPool(types.CPU(1))
	p.tryAcquire(dem(types.CPU(1)))
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- p.acquireBlocking(dem(types.CPU(1)), stop, 0) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case ok := <-got:
		if ok {
			t.Fatal("acquire succeeded after stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aborted acquire hung")
	}
	// Capacity must be intact.
	p.release(dem(types.CPU(1)))
	_, avail := p.snapshot()
	if avail[types.ResCPU] != 1 {
		t.Fatalf("capacity leaked: %v", avail)
	}
}

// Property: any sequence of acquire/release pairs leaves availability equal
// to total.
func TestResourcePoolBalance(t *testing.T) {
	f := func(ops []uint8) bool {
		p, dem := testPool(types.CPU(8))
		one := dem(types.CPU(1))
		held := 0
		for _, op := range ops {
			if op%2 == 0 && held < 8 {
				if p.tryAcquire(one) {
					held++
				}
			} else if held > 0 {
				p.release(one)
				held--
			}
		}
		for ; held > 0; held-- {
			p.release(one)
		}
		_, avail := p.snapshot()
		return avail[types.ResCPU] == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- policies ---

func snap(i uint64, cpu float64, queue int, locality int64) NodeSnapshot {
	return NodeSnapshot{
		Info:          types.NodeInfo{ID: tNode(i), Alive: true, Available: types.CPU(cpu), QueueLen: queue},
		LocalityBytes: locality,
	}
}

func TestLocalityPolicyPrefersData(t *testing.T) {
	p := LocalityPolicy{}
	nodes := []NodeSnapshot{snap(1, 8, 0, 0), snap(2, 1, 9, 1<<20)}
	id, ok := p.Pick(types.TaskSpec{}, nodes)
	if !ok || id != tNode(2) {
		t.Fatalf("picked %v", id)
	}
}

func TestLocalityPolicyTieBreaksByCPU(t *testing.T) {
	p := LocalityPolicy{}
	nodes := []NodeSnapshot{snap(1, 2, 0, 0), snap(2, 6, 0, 0)}
	id, _ := p.Pick(types.TaskSpec{}, nodes)
	if id != tNode(2) {
		t.Fatalf("picked %v", id)
	}
}

// TestLocalityPolicySpreadsFullTies: when every candidate looks identical
// (the stale-heartbeat burst case), repeated picks must not herd onto a
// single node.
func TestLocalityPolicySpreadsFullTies(t *testing.T) {
	p := LocalityPolicy{}
	nodes := []NodeSnapshot{snap(1, 2, 0, 0), snap(2, 2, 0, 0), snap(3, 2, 0, 0), snap(4, 2, 0, 0)}
	picked := map[types.NodeID]bool{}
	for i := 0; i < 200; i++ {
		id, ok := p.Pick(types.TaskSpec{}, nodes)
		if !ok {
			t.Fatal("no pick")
		}
		picked[id] = true
	}
	if len(picked) < 2 {
		t.Fatalf("200 tied picks all landed on one node: %v", picked)
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	p := LeastLoadedPolicy{}
	nodes := []NodeSnapshot{snap(1, 8, 5, 0), snap(2, 1, 1, 0)}
	id, _ := p.Pick(types.TaskSpec{}, nodes)
	if id != tNode(2) {
		t.Fatalf("picked %v", id)
	}
}

func TestRoundRobinPolicyRotates(t *testing.T) {
	p := &RoundRobinPolicy{}
	nodes := []NodeSnapshot{snap(1, 1, 0, 0), snap(2, 1, 0, 0)}
	a, _ := p.Pick(types.TaskSpec{}, nodes)
	b, _ := p.Pick(types.TaskSpec{}, nodes)
	if a == b {
		t.Fatal("round robin did not rotate")
	}
}

func TestPoliciesRejectEmpty(t *testing.T) {
	if _, ok := (LocalityPolicy{}).Pick(types.TaskSpec{}, nil); ok {
		t.Fatal("locality picked from nothing")
	}
	if _, ok := (LeastLoadedPolicy{}).Pick(types.TaskSpec{}, nil); ok {
		t.Fatal("least-loaded picked from nothing")
	}
	if _, ok := (&RoundRobinPolicy{}).Pick(types.TaskSpec{}, nil); ok {
		t.Fatal("round-robin picked from nothing")
	}
}

// TestGlobalSweepRescuesUnclaimedPending models a spill publish lost to a
// control-plane shard crash: the task is durably PENDING but no global
// scheduler ever saw it on the spill channel. The pending-task sweep must
// find and place it; a task already claimed (QUEUED) must not be swept.
func TestGlobalSweepRescuesUnclaimedPending(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nid := tNode(60)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(4)})

	lost := tSpec(61, nil)
	ctrl.AddTask(types.TaskState{Spec: lost, Status: types.TaskPending, Node: nid})
	claimed := tSpec(62, nil)
	ctrl.AddTask(types.TaskState{Spec: claimed, Status: types.TaskPending, Node: nid})
	if _, ok := ctrl.ClaimTask(claimed.ID, []types.TaskStatus{types.TaskPending}, types.TaskQueued, nid); !ok {
		t.Fatal("setup: claim lost")
	}

	placed := make(chan types.TaskID, 8)
	g := NewGlobal(GlobalConfig{
		Ctrl: ctrl,
		Assign: func(id types.NodeID, addr string, spec types.TaskSpec) error {
			placed <- spec.ID
			return nil
		},
	})
	g.Start()
	defer g.Stop()

	select {
	case id := <-placed:
		if id != lost.ID {
			t.Fatalf("sweep placed %v, want the unclaimed pending task %v", id, lost.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unclaimed PENDING task never rescued by the sweep")
	}
	// Watch at least one more sweep tick: the claimed task must stay
	// unswept (the lost one, never claimed by the fake Assign, may recur).
	for deadline := time.After(2 * sweepInterval); ; {
		select {
		case id := <-placed:
			if id == claimed.ID {
				t.Fatal("sweep re-placed a task already claimed QUEUED")
			}
			continue
		case <-deadline:
		}
		break
	}
}

// TestDuplicateSubmitRestoresLineageEdge: a re-submitted task (e.g. an
// AddTask retry whose original ack died between the task write and the
// object writes on a crashing control-plane shard) must still ensure its
// return objects' Producer edges — without them a later loss of the
// output would be unrecoverable (ErrNotReconstructable).
func TestDuplicateSubmitRestoresLineageEdge(t *testing.T) {
	l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
	spec := tSpec(70, nil)
	// Simulate the crash window: the task record exists but EnsureObject
	// never ran for its returns.
	ctrl.AddTask(types.TaskState{Spec: spec, Status: types.TaskPending})
	if _, ok := ctrl.GetObject(spec.ReturnID(0)); ok {
		t.Fatal("setup: object record must not exist yet")
	}
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
	info, ok := ctrl.GetObject(spec.ReturnID(0))
	if !ok {
		t.Fatal("return object never recorded")
	}
	if info.Producer != spec.ID {
		t.Fatalf("lineage edge lost: producer = %v", info.Producer)
	}
}
