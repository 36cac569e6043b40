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

// birthRecorder is a control plane that records every ModifyTaskStates
// call — a births call as "births", any other as "states" — with its token,
// and the lineage pins of watch at each states call that finishes a task.
// With refuse set it applies nothing and reports every ID not taken; with
// lose set it applies the batch and still reports every ID, as a shard
// whose ack died would.
type birthRecorder struct {
	*gcs.Store
	watch        types.ObjectID
	refuse, lose bool
	calls        []string
	ops          []uint64
	pinsAtFinish []int64
}

func (p *birthRecorder) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	kind := "states"
	for _, d := range deltas {
		if d.Spec != nil {
			kind = "births"
		} else if d.Status == types.TaskFinished {
			p.pinsAtFinish = append(p.pinsAtFinish, pinsOf(p.Store, p.watch))
		}
	}
	p.calls, p.ops = append(p.calls, kind), append(p.ops, op)
	if !p.refuse {
		p.Store.ModifyTaskStates(node, deltas, op)
	}
	if !p.refuse && !p.lose {
		return nil
	}
	ids := make([]types.TaskID, len(deltas))
	for i, d := range deltas {
		ids[i] = d.ID
	}
	return ids
}

func pinsOf(ctrl gcs.API, id types.ObjectID) int64 {
	info, _ := ctrl.GetObject(id)
	return info.LineagePins
}

// TestBirthPinsLineageOnceAheadOfTheTaskDeltas: a task's pin of its
// argument rides its birth — the ledger sends no pin of its own — so it
// reaches the table before any delta of the task, counts once when the
// birth is redelivered under its token after an ack was lost, goes with a
// birth FlushTask writes, and an abandoned ledger delivers nothing.
func TestBirthPinsLineageOnceAheadOfTheTaskDeltas(t *testing.T) {
	arg := sweepObjID(50)
	ctrl := &birthRecorder{Store: gcs.NewStore(2), watch: arg}
	node := retireTestNode(1)
	led := NewTaskLedger(ctrl)
	led.SetNode(node)
	led.async = true // batched, with this test as the flusher
	born := func(i uint64) types.TaskID {
		spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, i), Function: "f", NumReturns: 1, Args: []types.Arg{types.RefArg(arg)}}
		if adopted, _ := led.Birth(nil, &spec, led.ClockNs()); !adopted {
			t.Fatalf("birth of task %d not adopted", i)
		}
		return spec.ID
	}
	task := born(7)
	led.Transition(task, types.TaskFinished, types.NilWorkerID, "")
	ctrl.refuse = true
	if led.Flush() || pinsOf(ctrl, arg) != 0 {
		t.Fatalf("a refused birth: Flush drained, or LineagePins = %d", pinsOf(ctrl, arg))
	}
	ctrl.refuse, ctrl.lose = false, true
	if led.Flush() || pinsOf(ctrl, arg) != 1 {
		t.Fatalf("a birth whose ack was lost: Flush drained, or LineagePins = %d, want 1", pinsOf(ctrl, arg))
	}
	ctrl.lose = false
	if !led.Flush() {
		t.Fatal("Flush did not drain once the control plane took the birth")
	}
	if got := pinsOf(ctrl, arg); got != 1 {
		t.Fatalf("LineagePins = %d after one birth delivered three times, want 1", got)
	}
	if len(ctrl.calls) != 4 || ctrl.calls[0] != "births" || ctrl.calls[1] != "births" || ctrl.calls[2] != "births" || ctrl.calls[3] != "states" {
		t.Fatalf("flush calls %v, want the birth three times, then the task's delta", ctrl.calls)
	}
	if ctrl.ops[0] != ctrl.ops[1] || ctrl.ops[0] != ctrl.ops[2] || ctrl.ops[0] == 0 {
		t.Fatalf("birth tokens %v, want every delivery under the first one's", ctrl.ops[:3])
	}
	if len(ctrl.pinsAtFinish) != 1 || ctrl.pinsAtFinish[0] != 1 {
		t.Fatalf("LineagePins when the FINISHED delta was sent: %v, want 1", ctrl.pinsAtFinish)
	}

	other := born(8)
	led.FlushTask(other)
	if got := pinsOf(ctrl, arg); got != 2 {
		t.Fatalf("LineagePins = %d after FlushTask of a second pinning task, want 2", got)
	}

	last := born(9)
	led.async = false // Abandon waits for the flusher, and there is none
	led.Abandon()
	before := len(ctrl.calls)
	led.Flush()
	if _, ok := ctrl.GetTask(last); ok || len(ctrl.calls) != before || pinsOf(ctrl, arg) != 2 {
		t.Fatal("an abandoned ledger delivered a birth or a pin")
	}
}

// heldAdds is a control plane whose AddObjectLocation lands and then holds
// its caller, the drainer of the object's publishes, until release closes.
type heldAdds struct {
	*gcs.Store
	landed, release chan struct{}
}

func (h *heldAdds) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	h.Store.AddObjectLocation(id, node, size)
	close(h.landed)
	<-h.release
}

// TestProposalWaitsForTheLocationRemoval: a copy collected while another
// goroutine still drains the object's publishes has its location removal
// queued behind them. The object is proposed for retiring once the removal
// has landed — proposed before, it would be refused as located and never
// proposed again, and its records would outlive it.
func TestProposalWaitsForTheLocationRemoval(t *testing.T) {
	ctrl := &heldAdds{Store: gcs.NewStore(2), landed: make(chan struct{}), release: make(chan struct{})}
	node := retireTestNode(1)
	m := NewManager(ctrl, objectstore.New(node, ctrl, 0))
	spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, 77), Function: "f", NumReturns: 1}
	ctrl.AddTask(types.TaskState{Spec: spec, Status: types.TaskFinished})
	id := spec.ReturnID(0)
	ctrl.EnsureObject(id, spec.ID)

	put := make(chan error, 1)
	go func() { put <- m.store.Put(id, []byte("x")) }()
	<-ctrl.landed // located, and the Put still holds the object's publishes
	ctrl.ModifyObjectRefCounts(node, map[types.ObjectID]int64{id: 0}, 0)
	m.maybeReclaim(id)
	if m.store.Contains(id) {
		t.Fatal("garbage copy not collected")
	}
	later := time.Now().Add(time.Hour)
	if res := m.RetireDue(later); res.Located != 0 {
		t.Fatalf("proposed while the location removal waited: %+v", res)
	}
	close(ctrl.release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if res := m.RetireDue(later); res.Tasks != 1 || res.Objects != 1 {
		t.Fatalf("after the removal landed RetireDue = %+v, want the task and its object retired", res)
	}
}
