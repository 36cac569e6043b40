package scheduler

import (
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

func tGroup(seed byte) types.PlacementGroupID {
	var id types.PlacementGroupID
	id[0] = seed
	return id
}

// TestReserveBundleAccounting pins the reservation bookkeeping: a bundle
// carves capacity out of the general pool, is idempotent, refuses what
// does not fit, and release restores the books exactly.
func TestReserveBundleAccounting(t *testing.T) {
	l, _, _, _ := buildLocal(t, types.CPU(8), SpillNever)
	g := tGroup(1)

	if !l.ReserveBundle(g, 0, types.CPU(3)) {
		t.Fatal("reserve failed")
	}
	if !l.ReserveBundle(g, 0, types.CPU(3)) {
		t.Fatal("re-reserve must be idempotent")
	}
	if !l.ReserveBundle(g, 1, types.CPU(3)) {
		t.Fatal("second bundle failed")
	}
	total, avail, bundles, reserved := l.Accounting()
	if total[types.ResCPU] != 8 || avail[types.ResCPU] != 2 || bundles != 2 || reserved[types.ResCPU] != 6 {
		t.Fatalf("bad books after reserve: total=%v avail=%v bundles=%d reserved=%v", total, avail, bundles, reserved)
	}
	if l.ReserveBundle(g, 2, types.CPU(3)) {
		t.Fatal("over-capacity reserve must fail")
	}
	// A failed reserve leaves no trace (the all-or-nothing invariant's
	// node-local half).
	_, avail, bundles, _ = l.Accounting()
	if avail[types.ResCPU] != 2 || bundles != 2 {
		t.Fatalf("failed reserve left residue: avail=%v bundles=%d", avail, bundles)
	}

	l.ReleaseGroup(g, false)
	_, avail, bundles, reserved = l.Accounting()
	if avail[types.ResCPU] != 8 || bundles != 0 || !reserved.IsZero() {
		t.Fatalf("release did not restore books: avail=%v bundles=%d reserved=%v", avail, bundles, reserved)
	}
}

// TestGroupedTaskRunsFromReservation checks admission draws from the
// bundle pool — and that the reservation survives task churn: after the
// member task finishes, the bundle is still reserved.
func TestGroupedTaskRunsFromReservation(t *testing.T) {
	l, log, _, _ := buildLocal(t, types.CPU(4), SpillNever)
	g := tGroup(2)
	if !l.ReserveBundle(g, 0, types.CPU(2)) {
		t.Fatal("reserve failed")
	}

	spec := tSpec(50, types.CPU(2))
	spec.Group = g
	spec.Bundle = 0
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)

	// Churn over: the reservation is intact, general pool untouched.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total, avail, bundles, reserved := l.Accounting()
		if avail[types.ResCPU] == 2 && bundles == 1 && reserved[types.ResCPU] == 2 && total[types.ResCPU] == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservation did not survive churn: total=%v avail=%v bundles=%d reserved=%v",
				total, avail, bundles, reserved)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGroupedTaskWithoutReservationSpills checks a member task born on a
// node without its bundle goes to the spill queue instead of running.
func TestGroupedTaskWithoutReservationSpills(t *testing.T) {
	l, log, ctrl, _ := buildLocal(t, types.CPU(4), SpillNever)
	sub := ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	defer sub.Close()

	spec := tSpec(51, types.CPU(1))
	spec.Group = tGroup(3)
	spec.Bundle = 0
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("grouped task without reservation did not spill")
	}
	select {
	case id := <-log.ch:
		t.Fatalf("task %v ran without a reservation", id)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLocalityHintSpills checks a locality hint naming another node routes
// through the global scheduler.
func TestLocalityHintSpills(t *testing.T) {
	l, _, ctrl, _ := buildLocal(t, types.CPU(4), SpillNever)
	sub := ctrl.Subscribe(gcs.TopicSpill, types.NilTaskID)
	defer sub.Close()

	spec := tSpec(52, types.CPU(1))
	spec.Locality = tNode(99) // not this node
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("locality-hinted task did not spill")
	}
}

// TestReleaseGroupFailsQueuedMembers checks terminal removal: queued
// member tasks fail typed (error payloads stored, status Failed).
func TestReleaseGroupFailsQueuedMembers(t *testing.T) {
	l, _, ctrl, store := buildLocal(t, types.CPU(2), SpillNever)
	g := tGroup(4)
	if !l.ReserveBundle(g, 0, types.CPU(2)) {
		t.Fatal("reserve failed")
	}

	// A blocked member: depends on an object that never arrives, so it
	// stays in waiting until the release.
	var dep types.ObjectID
	dep[0] = 77
	ctrl.EnsureObject(dep, types.NilTaskID)
	spec := tSpec(53, types.CPU(1), dep)
	spec.Group = g
	spec.Bundle = 0
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.WaitingLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never parked")
		}
		time.Sleep(time.Millisecond)
	}

	l.ReleaseGroup(g, true)
	st, ok := ctrl.GetTask(spec.ID)
	if !ok || st.Status != types.TaskFailed {
		t.Fatalf("member not failed: %+v ok=%v", st, ok)
	}
	if _, ok := store.Get(spec.ReturnID(0)); !ok {
		t.Fatal("no error payload stored for the failed member")
	}
	_, avail, bundles, _ := l.Accounting()
	if avail[types.ResCPU] != 2 || bundles != 0 {
		t.Fatalf("release left residue: avail=%v bundles=%d", avail, bundles)
	}
}

// TestPlanBundlesStrategies pins the planner: spread needs distinct nodes,
// pack prefers few nodes, and infeasible groups plan to nothing.
func TestPlanBundlesStrategies(t *testing.T) {
	nodes := []types.NodeInfo{
		{ID: tNode(1), Alive: true, Total: types.CPU(8), Available: types.CPU(8)},
		{ID: tNode(2), Alive: true, Total: types.CPU(8), Available: types.CPU(8)},
	}
	spread := types.PlacementGroupSpec{
		ID: tGroup(9), Strategy: types.StrategyStrictSpread,
		Bundles: []types.Bundle{{Resources: types.CPU(2)}, {Resources: types.CPU(2)}},
	}
	plan := planBundles(spread, nodes)
	if plan == nil || plan[0] == plan[1] {
		t.Fatalf("spread plan wrong: %v", plan)
	}
	spread.Bundles = append(spread.Bundles, types.Bundle{Resources: types.CPU(2)})
	if plan := planBundles(spread, nodes); plan != nil {
		t.Fatalf("3 spread bundles on 2 nodes must not plan: %v", plan)
	}

	pack := types.PlacementGroupSpec{
		ID: tGroup(10), Strategy: types.StrategyPack,
		Bundles: []types.Bundle{{Resources: types.CPU(3)}, {Resources: types.CPU(3)}},
	}
	plan = planBundles(pack, nodes)
	if plan == nil || plan[0] != plan[1] {
		t.Fatalf("pack plan should co-locate: %v", plan)
	}
	big := types.PlacementGroupSpec{
		ID: tGroup(11), Strategy: types.StrategyPack,
		Bundles: []types.Bundle{{Resources: types.CPU(9)}},
	}
	if plan := planBundles(big, nodes); plan != nil {
		t.Fatalf("oversized bundle must not plan: %v", plan)
	}
}
