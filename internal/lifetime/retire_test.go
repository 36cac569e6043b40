package lifetime

import (
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

func retireTestNode(b byte) types.NodeID {
	var id types.NodeID
	id[0] = b
	return id
}

// drainedObject stores data under id on m's store, passes a retain and a
// release through the control plane, and lets m collect the copy: what is
// left is a dead record and m's proposal of it.
func drainedObject(t *testing.T, ctrl *gcs.Store, m *Manager, id types.ObjectID) {
	t.Helper()
	if err := m.store.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctrl.ModifyObjectRefCounts(m.store.Node(), map[types.ObjectID]int64{id: 0}, 0)
	m.maybeReclaim(id)
	if m.store.Contains(id) {
		t.Fatal("garbage copy not collected")
	}
}

// TestGCPublishElsewhereCostsNoControlPlaneRead: every node hears every GC
// publish; one that holds no copy answers from its own store.
func TestGCPublishElsewhereCostsNoControlPlaneRead(t *testing.T) {
	ctrl := gcs.NewStore(2)
	holder := NewManager(ctrl, objectstore.New(retireTestNode(1), ctrl, 0))
	bystander := NewManager(ctrl, objectstore.New(retireTestNode(2), ctrl, 0))
	id := sweepObjID(40)
	if err := holder.store.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctrl.ModifyObjectRefCounts(retireTestNode(1), map[types.ObjectID]int64{id: 0}, 0)

	before := ctrl.Ops()
	bystander.maybeReclaim(id)
	if cost := ctrl.Ops() - before; cost != 0 {
		t.Fatalf("a GC publish for an object held elsewhere cost %d control-plane operations, want 0", cost)
	}
	if n, _ := bystander.Proposals(); n != 0 {
		t.Fatalf("the bystander queued %d proposals for a copy it never had", n)
	}
	holder.maybeReclaim(id)
	if holder.store.Contains(id) {
		t.Fatal("the holder kept its garbage copy")
	}
	if n, _ := holder.Proposals(); n != 1 {
		t.Fatalf("the holder queued %d proposals for the copy it dropped, want 1", n)
	}
}

// TestProposalWaitsOutTheGrace: a drained object's record is proposed a
// grace after the drain, not before, and then goes.
func TestProposalWaitsOutTheGrace(t *testing.T) {
	ctrl := gcs.NewStore(2)
	reg := metrics.NewRegistry()
	m := NewManager(ctrl, objectstore.New(retireTestNode(1), ctrl, 0))
	m.SetMetrics(reg)
	id := sweepObjID(41)
	drainedObject(t, ctrl, m, id)
	drained := time.Now()

	if res := m.RetireDue(drained.Add(reclaimGrace / 2)); res.Objects != 0 {
		t.Fatalf("retired %d records half a grace after the drain", res.Objects)
	}
	if _, ok := ctrl.GetObject(id); !ok {
		t.Fatal("record gone before its grace")
	}
	if res := m.RetireDue(drained.Add(reclaimGrace + time.Millisecond)); res.Objects != 1 {
		t.Fatalf("RetireDue a grace after the drain = %+v, want the one record", res)
	}
	if _, ok := ctrl.GetObject(id); ok {
		t.Fatal("dead record survived its proposal")
	}
	snap := reg.Snapshot()
	if snap.Counters["lifetime.retire.proposed"] != 1 || snap.Counters["lifetime.retire.objects"] != 1 || snap.Gauges["lifetime.retire.queued"] != 0 {
		t.Fatalf("counters after one retire: %v %v", snap.Counters, snap.Gauges)
	}
}

// TestEarlyProposalIsMadeOnceMore: a proposal that beat its producer's
// terminal delta to the table is repeated once, after twice the grace; one
// that is early again is dropped, and counted.
func TestEarlyProposalIsMadeOnceMore(t *testing.T) {
	ctrl := gcs.NewStore(2)
	reg := metrics.NewRegistry()
	m := NewManager(ctrl, objectstore.New(retireTestNode(1), ctrl, 0))
	m.SetMetrics(reg)
	spec := func(i uint64) types.TaskSpec {
		return types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, i), Function: "f", NumReturns: 1}
	}
	late, never := spec(1), spec(2)
	for _, s := range []types.TaskSpec{late, never} {
		ctrl.AddTask(types.TaskState{Spec: s})
		ctrl.EnsureObject(s.ReturnID(0), s.ID)
		drainedObject(t, ctrl, m, s.ReturnID(0))
	}
	first := time.Now().Add(reclaimGrace + time.Millisecond)
	if res := m.RetireDue(first); res.Objects != 0 || len(res.Again) != 2 {
		t.Fatalf("first proposal of two objects with running producers = %+v, want both to be tried again", res)
	}
	ctrl.ClaimTask(late.ID, []types.TaskStatus{types.TaskPending}, types.TaskFinished, types.NilNodeID)
	if res := m.RetireDue(first.Add(reclaimGrace)); res.Objects+len(res.Again) != 0 {
		t.Fatalf("second proposal made after one grace, not two: %+v", res)
	}
	if res := m.RetireDue(first.Add(2*reclaimGrace + time.Millisecond)); res.Tasks != 1 || res.Objects != 1 || len(res.Again) != 1 {
		t.Fatalf("second proposal = %+v, want the finished task retired and the other early again", res)
	}
	if n, _ := m.Proposals(); n != 0 {
		t.Fatalf("%d proposals still queued after the second attempt", n)
	}
	if _, ok := ctrl.GetTask(never.ID); !ok {
		t.Fatal("a task that never finished was retired")
	}
	if got := reg.Snapshot().Counters; got["lifetime.retire.dropped"] != 1 || got["lifetime.retire.refused;cause=producer-live"] != 3 {
		t.Fatalf("counters: %v", got)
	}
}

// pinRecorder is a control plane that records every PinObjects call and
// can refuse them.
type pinRecorder struct {
	*gcs.Store
	refuse bool
	ops    []uint64
	calls  []string
}

func (p *pinRecorder) PinObjects(deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	p.ops = append(p.ops, op)
	p.calls = append(p.calls, "pin")
	if p.refuse {
		failed := make([]types.ObjectID, 0, len(deltas))
		for id := range deltas {
			failed = append(failed, id)
		}
		return failed
	}
	return p.Store.PinObjects(deltas, op)
}

func (p *pinRecorder) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	p.calls = append(p.calls, "states")
	return p.Store.ModifyTaskStates(node, deltas, op)
}

func pinsOf(t *testing.T, ctrl gcs.API, id types.ObjectID) int64 {
	t.Helper()
	info, _ := ctrl.GetObject(id)
	return info.LineagePins
}

// TestPinLineageOnceAheadOfTheTaskDeltas: a pin reaches the table before
// the deltas of the task that holds it, a refused batch is redelivered
// under its own token and counts once, FlushTask carries the task's pins,
// and an abandoned ledger delivers nothing.
func TestPinLineageOnceAheadOfTheTaskDeltas(t *testing.T) {
	ctrl := &pinRecorder{Store: gcs.NewStore(2)}
	node := retireTestNode(1)
	led := NewTaskLedger(ctrl)
	led.SetNode(node)
	led.async = true // batched, with this test as the flusher
	arg := sweepObjID(50)
	task := types.DeriveTaskID(types.NilTaskID, 7)
	ctrl.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, Function: "f", Args: []types.Arg{types.RefArg(arg)}}, Owner: node})
	led.Adopt(task, 0, types.TaskPending)

	led.PinLineage(task, arg)
	led.Transition(task, types.TaskFinished, types.NilWorkerID, "")
	ctrl.refuse = true
	if led.Flush() {
		t.Fatal("Flush reported a drained ledger with its pin batch refused")
	}
	ctrl.refuse = false
	if !led.Flush() {
		t.Fatal("Flush did not drain once the control plane took the pins")
	}
	if got := pinsOf(t, ctrl, arg); got != 1 {
		t.Fatalf("LineagePins = %d after one pin refused once and redelivered, want 1", got)
	}
	if len(ctrl.ops) != 2 || ctrl.ops[0] != ctrl.ops[1] || ctrl.ops[0] == 0 {
		t.Fatalf("pin batch tokens %v, want the redelivery under the original token", ctrl.ops)
	}
	if len(ctrl.calls) < 2 || ctrl.calls[0] != "pin" {
		t.Fatalf("flush order %v, want the pins ahead of the task deltas", ctrl.calls)
	}

	other := types.DeriveTaskID(types.NilTaskID, 8)
	led.PinLineage(other, arg)
	led.FlushTask(other)
	if got := pinsOf(t, ctrl, arg); got != 2 {
		t.Fatalf("LineagePins = %d after FlushTask of a second pinning task, want 2", got)
	}

	led.PinLineage(types.DeriveTaskID(types.NilTaskID, 9), arg)
	led.async = false // Abandon waits for the flusher, and there is none
	led.Abandon()
	before := len(ctrl.ops)
	led.Flush()
	if len(ctrl.ops) != before || pinsOf(t, ctrl, arg) != 2 {
		t.Fatal("an abandoned ledger delivered a pin")
	}
}
