package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// TestOwnerTransferOwnerKillMidBurst kills a node mid-burst while it owns
// live task tenures (tasks it claimed via spill placement) and asserts the
// owner-death transfer protocol end to end (DESIGN.md §13): the global
// scheduler reads the dead owner's live tasks from the follower table,
// releases each tenure back into the PENDING pool — bumping the fence so
// straggler deltas from the dead ledger are consumed — and re-places them.
// Every result must come back correct, and the task table must conserve
// task state: each submitted task ends in exactly one terminal record.
func TestOwnerTransferOwnerKillMidBurst(t *testing.T) {
	reg := core.NewRegistry()
	step := core.Register1(reg, "own.step", func(tc *core.TaskContext, x int) (int, error) {
		time.Sleep(2 * time.Millisecond) // long enough for the kill to land mid-tenure
		return x + 7, nil
	})
	c, err := New(Config{
		Nodes:          4,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{}, // spread tenures onto the victim
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	const tasks = 24
	refs := make([]core.Ref[int], tasks)
	ids := make([]types.TaskID, tasks)
	for i := 0; i < tasks; i++ {
		ref, err := step.Remote(d, i*10)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		ids[i] = ref.Untyped().Task
		if ids[i].IsNil() {
			t.Fatalf("submit %d returned a ref with no task identity", i)
		}
	}

	// Kill a non-driver node while the burst executes: tasks it claimed die
	// with their owner's ledger and must be re-owned by successors.
	go func() {
		time.Sleep(4 * time.Millisecond)
		c.KillNode(2)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, ref := range refs {
		v, err := core.Get(ctx, d, ref)
		if err != nil {
			t.Fatalf("task %d after owner kill: %v", i, err)
		}
		if want := i*10 + 7; v != want {
			t.Fatalf("task %d = %d, want %d", i, v, want)
		}
	}

	// Task-state conservation: every submitted task reaches exactly one
	// terminal record in the follower table — none stranded mid-tenure on
	// the dead owner, none forgotten by the transfer.
	chaostest.New(c.Ctrl).AwaitTaskConservation(t, 20*time.Second, ids)
}

// TestOwnerTransferCommitThenDie drives the narrower commit-then-die
// window at cluster scope: the owner's ledger flushes a terminal FINISHED
// delta for a task (commit), then the owner dies. The transfer pass must
// NOT resurrect the finished task — its CAS only releases live tenures —
// and conservation must still hold for everything the dead node owned.
func TestOwnerTransferCommitThenDie(t *testing.T) {
	reg := core.NewRegistry()
	quick := core.Register1(reg, "own.quick", func(tc *core.TaskContext, x int) (int, error) {
		return x * 3, nil
	})
	c, err := New(Config{
		Nodes:          3,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	const tasks = 12
	refs := make([]core.Ref[int], tasks)
	ids := make([]types.TaskID, tasks)
	for i := 0; i < tasks; i++ {
		ref, err := quick.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		ids[i] = ref.Untyped().Task
	}

	// Let the burst finish and the owners' FINISHED deltas flush, then
	// kill a node that owned some of the (already terminal) tenures.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	raw := make([]core.ObjectRef, tasks)
	for i, r := range refs {
		raw[i] = r.Untyped()
	}
	if _, _, err := d.Wait(ctx, raw, tasks, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Pull every result BEFORE the kill: a Get afterwards could trigger
	// lineage reconstruction of objects lost with the node, which
	// legitimately re-runs tasks — not the window under test.
	for i, ref := range refs {
		v, err := core.Get(ctx, d, ref)
		if err != nil {
			t.Fatalf("task %d before kill: %v", i, err)
		}
		if v != i*3 {
			t.Fatalf("task %d = %d, want %d", i, v, i*3)
		}
	}
	chaostest.New(c.Ctrl).AwaitTaskConservation(t, 20*time.Second, ids)
	before := map[types.TaskID]int64{}
	for _, ts := range c.Ctrl.Tasks() {
		before[ts.Spec.ID] = ts.FinishedNs
	}
	c.KillNode(1)

	// Wait for the death verdict, so the membership event (and with it the
	// transfer pass) has fired before the no-resurrection check.
	victim := c.Node(1).ID()
	deadline := time.Now().Add(20 * time.Second)
	for {
		info, ok := c.Ctrl.GetNode(victim)
		if ok && !info.Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never marked dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let the transfer pass complete

	// Finished records must keep their terminal state and timestamps — the
	// transfer's CAS only releases live tenures, never terminal ones.
	chaostest.New(c.Ctrl).AwaitTaskConservation(t, 20*time.Second, ids)
	for _, ts := range c.Ctrl.Tasks() {
		if fin, ok := before[ts.Spec.ID]; ok && ts.FinishedNs != fin {
			t.Fatalf("task %v resurrected by the owner-death transfer: finish %d -> %d",
				ts.Spec.ID, fin, ts.FinishedNs)
		}
	}
}

// probedClusterNode boots one more node into c whose control plane is c's
// behind a probe.
func probedClusterNode(t *testing.T, c *Cluster, res types.Resources) (*node.Node, *ctrlProbe) {
	t.Helper()
	c.addMu.Lock()
	defer c.addMu.Unlock()
	probe := &ctrlProbe{API: c.API}
	n, err := node.New(node.Config{
		Resources: res, Network: c.Network, ListenAddr: fmt.Sprintf("node-%d", c.NumNodes()), Ctrl: probe,
		Registry: c.cfg.Registry, SpillThreshold: scheduler.SpillNever, HeartbeatInterval: heartbeatInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.nodes = append(c.nodes, n)
	c.mu.Unlock()
	return n, probe
}

// TestOwnerDeathWithOwedBirths kills a node that holds parked tasks whose
// births are still owed: a chain its own driver submitted, whose births
// wait for the flush, and the children that a task placed there by a
// surviving driver submitted behind a slow sibling, whose births the
// table refused. The node's task table refuses every birth, as a shard
// that is down does, so the births stay owed however long the setup takes.
// A task fate-shares with its owner: the table holds no record of any of
// them, the surviving driver's result comes back correct through the
// replay of the parent on a node that joins after the kill, and the
// reference books balance.
func TestOwnerDeathWithOwedBirths(t *testing.T) {
	reg := core.NewRegistry()
	gate := make(chan struct{})
	slow := core.Register1(reg, "owed.slow", func(tc *core.TaskContext, x int) (int, error) {
		select {
		case <-gate:
			return x, nil
		case <-tc.Context().Done():
			return 0, tc.Context().Err()
		}
	})
	inc := core.Register1(reg, "owed.inc", func(tc *core.TaskContext, x int) (int, error) { return x + 1, nil })
	children := make(chan [2]types.TaskID, 1)
	var runs atomic.Int32
	parent := core.Register1(reg, "owed.parent", func(tc *core.TaskContext, x int) (int, error) {
		runs.Add(1)
		s, err := slow.Remote(tc, x)
		if err != nil {
			return 0, err
		}
		k, err := inc.RemoteRef(tc, s)
		if err != nil {
			return 0, err
		}
		select {
		case children <- [2]types.TaskID{s.Ref.Task, k.Ref.Task}:
		default: // the replay's, which have the same IDs
		}
		v, err := core.TaskGet(tc, k)
		return 10 * v, err
	})
	c, err := New(Config{Nodes: 1, PerNodeResources: []types.Resources{types.CPU(2), nil, types.GPU(2, 1)}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	n1, probe := probedClusterNode(t, c, types.GPU(4, 1))
	probe.refuseBirths.Store(true)

	d0 := c.Driver()
	ref, err := parent.Remote(d0, 4, onGPU) // only node 1 has a GPU
	if err != nil {
		t.Fatal(err)
	}
	var owed []types.TaskID
	select {
	case kids := <-children:
		owed = kids[:]
	case <-time.After(10 * time.Second):
		t.Fatal("the parent did not run")
	}
	d1 := c.DriverOn(1)
	s1, err := slow.Remote(d1, 1)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := inc.RemoteRef(d1, s1)
	if err != nil {
		t.Fatal(err)
	}
	owed = append(owed, s1.Ref.Task, k1.Ref.Task)
	waitFor(t, 10*time.Second, "both slow tasks' successors to park", func() bool { return n1.Scheduler().WaitingLen() == 2 })
	for _, id := range owed {
		if !n1.TaskLedger().Owes(id) {
			t.Fatalf("task %v's birth is not owed before the kill", id)
		}
	}
	c.KillNode(1)
	for _, id := range owed {
		if st, ok := c.API.GetTask(id); ok {
			t.Fatalf("task %v born on the dead node has a record: %+v", id, st)
		}
	}

	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if v, err := core.Get(testCtx(t), d0, ref); err != nil || v != 50 {
		t.Fatalf("the parent after its node died = %d, %v; want 50", v, err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("the parent ran %d times, want 2", got)
	}
	d0.Release(ref.Ref)
	check := chaostest.New(c.API)
	check.AwaitTaskConservation(t, 10*time.Second, []types.TaskID{ref.Ref.Task})
	check.AwaitRefConservation(t, 10*time.Second, map[string]chaostest.Ledger{
		"node-0": c.Node(0).Lifetime().Tracker(),
		"node-2": c.Node(2).Lifetime().Tracker(),
	})
	check.AwaitReferencedReachable(t, 10*time.Second)
}
