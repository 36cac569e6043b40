package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/types"
)

// gangRegistry registers the toy member function used by the gang tests.
func gangRegistry() (*core.Registry, core.Func1[int, int]) {
	reg := core.NewRegistry()
	fn := core.Register1(reg, "gang.id", func(tc *core.TaskContext, x int) (int, error) {
		return x, nil
	})
	core.Register1(reg, "gang.sleep", func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	return reg, fn
}

// waitFor polls cond until true or the deadline, failing the test after.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertZeroReservations checks every live node's books through the shared
// cluster-invariant checker (internal/chaostest): no bundle pools, full
// availability. The gang invariant: a group that cannot fully place leaves
// nothing behind.
func assertZeroReservations(t *testing.T, c *Cluster, skip map[int]bool) {
	t.Helper()
	books := make(map[string]chaostest.Books)
	for i := 0; i < c.NumNodes(); i++ {
		if skip[i] {
			continue
		}
		books[fmt.Sprintf("node-%d", i)] = c.Node(i).Scheduler()
	}
	chaostest.New(c.API).AwaitQuiescentBooks(t, 5*time.Second, books)
}

// TestGangAtomicity is the acceptance test: a 3-bundle STRICT_SPREAD group
// on a cluster that fits only 2 bundles stays pending with zero partial
// reservations, places atomically once a node joins, and — after a member
// node dies — releases every reservation and re-places the bundle set as a
// unit once capacity returns.
func TestGangAtomicity(t *testing.T) {
	reg, fn := gangRegistry()
	c, err := New(Config{Nodes: 2, NodeResources: types.CPU(4), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()

	bundles := []types.Resources{types.CPU(3), types.CPU(3), types.CPU(3)}
	pg, err := d.CreatePlacementGroup("gang", types.StrategyStrictSpread, bundles)
	if err != nil {
		t.Fatal(err)
	}

	// Two nodes cannot spread three bundles: the group must stay pending,
	// with zero reservations anywhere (all-or-nothing).
	time.Sleep(300 * time.Millisecond) // several gang passes
	if info, ok := c.API.GetPlacementGroup(pg.ID); !ok || info.State == types.GroupPlaced {
		t.Fatalf("group must not place on 2 nodes: %+v ok=%v", info, ok)
	}
	assertZeroReservations(t, c, nil)

	// A member task submitted now parks; it must run after placement.
	early, err := fn.Options(pg.Bundle(0), core.WithResources(types.CPU(1))).Remote(d, 41)
	if err != nil {
		t.Fatal(err)
	}

	// Third node: the group must place atomically across all three.
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	if err := pg.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatalf("group did not place after node join: %v", err)
	}
	info, _ := c.API.GetPlacementGroup(pg.ID)
	seen := map[types.NodeID]bool{}
	for _, n := range info.BundleNodes {
		if seen[n] {
			t.Fatalf("STRICT_SPREAD placed two bundles on %v", n)
		}
		seen[n] = true
	}
	if v, err := core.Get(ctx, d, early); err != nil || v != 41 {
		t.Fatalf("parked member task after placement: v=%d err=%v", v, err)
	}

	// Every bundle is reachable.
	for b := 0; b < 3; b++ {
		ref, err := fn.Options(pg.Bundle(b), core.WithResources(types.CPU(1))).Remote(d, b)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, ref); err != nil || v != b {
			t.Fatalf("bundle %d member task: v=%d err=%v", b, v, err)
		}
	}

	// Kill a member node other than node 0 (the driver's backend). With
	// two nodes left the group cannot re-place: every surviving
	// reservation must be released — no partial placements linger.
	victim := -1
	for i := 1; i < c.NumNodes(); i++ {
		if seen[c.Node(i).ID()] {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no killable member node")
	}
	dead := c.Node(victim).ID()
	c.KillNode(victim)
	waitFor(t, 5*time.Second, "rollback off the dead node", func() bool {
		info, ok := c.API.GetPlacementGroup(pg.ID)
		return ok && info.State != types.GroupPlaced
	})
	assertZeroReservations(t, c, map[int]bool{victim: true})

	// Capacity returns: the whole set re-places atomically, off the dead
	// node, and the group serves again.
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "atomic re-placement", func() bool {
		info, ok := c.API.GetPlacementGroup(pg.ID)
		if !ok || info.State != types.GroupPlaced {
			return false
		}
		for _, n := range info.BundleNodes {
			if n == dead {
				return false
			}
		}
		return true
	})
	ref, err := fn.Options(pg.Bundle(1), core.WithResources(types.CPU(1))).Remote(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, ref); err != nil || v != 7 {
		t.Fatalf("member task after re-placement: v=%d err=%v", v, err)
	}
}

// TestGangRemoveFailsPendingMembers checks removal: parked member tasks of
// a never-placeable group fail with the typed error instead of hanging,
// and queued members on a placed group's nodes fail too.
func TestGangRemoveFailsPendingMembers(t *testing.T) {
	reg, fn := gangRegistry()
	c, err := New(Config{Nodes: 2, NodeResources: types.CPU(4), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()

	// Unplaceable group (three spread bundles, two nodes): member parks.
	pg, err := d.CreatePlacementGroup("doomed", types.StrategyStrictSpread,
		[]types.Resources{types.CPU(3), types.CPU(3), types.CPU(3)})
	if err != nil {
		t.Fatal(err)
	}
	parked, err := fn.Options(pg.Bundle(0), core.WithResources(types.CPU(1))).Remote(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let it reach the global's parked set
	if err := pg.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Get(ctx, d, parked); !errors.Is(err, core.ErrGroupRemoved) {
		t.Fatalf("parked member after removal: want ErrGroupRemoved, got %v", err)
	}

	// Placed group: a member queued behind a running one fails on removal.
	pg2, err := d.CreatePlacementGroup("live", types.StrategyPack, []types.Resources{types.CPU(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := pg2.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Submission order is not dispatch order on the spill/placement path
	// (DESIGN.md §9), so the test gates on observed state: the blocker holds
	// the bundle before the second member is submitted, and that member is
	// queued on the bundle node before the removal.
	blocker, err := d.SubmitOpts("gang.sleep", []types.Arg{core.Val(2000)},
		core.WithPlacementGroup(pg2.ID, 0), core.WithResources(types.CPU(1)))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "blocker running", func() bool {
		st, ok := c.API.GetTask(mustTaskOf(c, blocker[0]))
		return ok && st.Status == types.TaskRunning
	})
	queued, err := fn.Options(pg2.Bundle(0), core.WithResources(types.CPU(1))).Remote(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := c.API.GetPlacementGroup(pg2.ID)
	waitFor(t, 5*time.Second, "second member queued on the bundle node", func() bool {
		st, ok := c.API.GetTask(mustTaskOf(c, queued.Untyped()))
		return ok && st.Status == types.TaskQueued && st.Node == live.BundleNodes[0]
	})
	if err := pg2.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Get(ctx, d, queued); !errors.Is(err, core.ErrGroupRemoved) {
		t.Fatalf("queued member after removal: want ErrGroupRemoved, got %v", err)
	}
	// The running member finishes normally; reservations are gone.
	if _, err := d.Get(ctx, blocker[0]); err != nil {
		t.Fatalf("running member should finish: %v", err)
	}
	assertZeroReservations(t, c, nil)
}

// mustTaskOf maps a return object to its producing task via the object
// table (the spec's lineage edge).
func mustTaskOf(c *Cluster, ref core.ObjectRef) types.TaskID {
	info, ok := c.API.GetObject(ref.ID)
	if !ok {
		return types.NilTaskID
	}
	return info.Producer
}

// TestGangConcurrentCreateRemove races group creation, placement, member
// submission, and removal under -race; afterwards no reservations may
// leak on any node.
func TestGangConcurrentCreateRemove(t *testing.T) {
	reg, fn := gangRegistry()
	c, err := New(Config{Nodes: 3, NodeResources: types.CPU(8), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const groups = 6
	var wg sync.WaitGroup
	for i := 0; i < groups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pg, err := d.CreatePlacementGroup(fmt.Sprintf("race-%d", i), types.PlacementStrategy(i%2),
				[]types.Resources{types.CPU(2), types.CPU(2)})
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			// Half the groups get a member task racing the remove.
			if i%2 == 0 {
				if ref, err := fn.Options(pg.Bundle(i%2), core.WithResources(types.CPU(1))).Remote(d, i); err == nil {
					go func() { _, _ = core.Get(ctx, d, ref) }()
				}
			}
			time.Sleep(time.Duration(i*13) * time.Millisecond)
			if err := pg.Remove(); err != nil {
				t.Errorf("remove %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	waitFor(t, 10*time.Second, "all groups removed", func() bool {
		for _, g := range c.API.PlacementGroups() {
			if g.State != types.GroupRemoved {
				return false
			}
		}
		return true
	})
	assertZeroReservations(t, c, nil)
}

// TestGangMemberBornOnHolder is the regression for the grouped dispatch
// claim reading a stale follower: a member submitted on the node that holds
// its bundle is PENDING in the task table until the owner ledger's QUEUED
// stamp flushes, and dispatch claims QUEUED→SCHEDULED against that table.
// Dispatch must flush the task first; it used to lose the claim to its own
// unflushed stamp and drop the task as if a group removal had buried it.
func TestGangMemberBornOnHolder(t *testing.T) {
	reg, fn := gangRegistry()
	c, err := New(Config{Nodes: 1, NodeResources: types.CPU(4), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pg, err := d.CreatePlacementGroup("solo", types.StrategyPack, []types.Resources{types.CPU(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ref, err := fn.Options(pg.Bundle(0), core.WithResources(types.CPU(1))).Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, ref); err != nil || v != i {
			t.Fatalf("member %d born on the bundle holder: got %v, %v", i, v, err)
		}
	}
}
