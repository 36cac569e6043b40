package scheduler

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// passCounter is a control plane that signals every watch of one object:
// each is one look of the dependency table at it.
type passCounter struct {
	*gcs.Store
	obj    types.ObjectID
	passes chan struct{}
}

func (p *passCounter) WatchObjects(node types.NodeID, ids []types.ObjectID) []gcs.ObjectWatch {
	if slices.Contains(ids, p.obj) {
		select {
		case p.passes <- struct{}{}:
		default:
		}
	}
	return p.Store.WatchObjects(node, ids)
}

// parkOnPending parks a consumer on a PENDING dependency behind a counting
// reconstructor.
func parkOnPending(t *testing.T, recon func(l *Local, dep types.ObjectID)) (*Local, *execLog, types.TaskSpec, *passCounter, *atomic.Int64) {
	t.Helper()
	l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
	producer := types.DeriveTaskID(types.NilTaskID, 4242)
	dep := types.ObjectIDForReturn(producer, 0)
	ctrl.EnsureObject(dep, producer)
	counting := &passCounter{Store: ctrl, obj: dep, passes: make(chan struct{}, 64)} // room for every pass of a period
	l.cfg.Ctrl = counting
	var calls atomic.Int64
	l.cfg.Recon = func(id types.ObjectID) error {
		if id == dep {
			calls.Add(1)
			recon(l, dep)
		}
		return nil
	}
	spec := tSpec(77, nil, dep)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	return l, log, spec, counting, &calls
}

// TestHealthyParkedDepSkipsStrandedProbe: a dependency parked on a healthy
// producer costs no reconstructor call — the throttle starts a period in,
// not on the first look at every parked dependency, nor on the sweeps
// before strandedPeriod.
func TestHealthyParkedDepSkipsStrandedProbe(t *testing.T) {
	l, log, spec, ctrl, calls := parkOnPending(t, func(*Local, types.ObjectID) {})
	<-ctrl.passes
	sweeps := func() int {
		l.deps.mu.Lock()
		defer l.deps.mu.Unlock()
		return l.deps.parked[ctrl.obj].sweeps
	}
	for sweeps() < 3 {
		time.Sleep(time.Millisecond)
	}
	// Read before the sweep count: a count still short of strandedPeriod
	// says no probe was due when the calls were read.
	if n := calls.Load(); n != 0 && sweeps() < strandedPeriod {
		t.Fatalf("healthy parked dependency cost %d reconstructor calls before a stranded period", n)
	}
	if err := l.cfg.Store.Put(ctrl.obj, []byte("d")); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
}

// TestStrandedProducerStillReplayed: a producer stranded before the consumer
// parked is found by the throttled probe, a period of polls later.
func TestStrandedProducerStillReplayed(t *testing.T) {
	_, log, spec, _, calls := parkOnPending(t, func(l *Local, dep types.ObjectID) {
		_ = l.cfg.Store.Put(dep, []byte("replayed")) // what a lineage replay ends in
	})
	waitExec(t, log, spec.ID)
	if n := calls.Load(); n != 1 {
		t.Fatalf("stranded producer probed %d times, want exactly 1", n)
	}
}

// TestSlowProbeDelaysStrandedProbeOnly: a row that comes due a probe while
// another row's probe runs waits for that probe, not for its next period.
// One task parks on a pending object and on one with no record, whose probe
// comes due on every sweep; the first of those probes lasts until the
// pending row's stranded-producer probe has come due. That probe still
// runs within two sweeps of coming due.
func TestSlowProbeDelaysStrandedProbeOnly(t *testing.T) {
	l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
	producer := types.DeriveTaskID(types.NilTaskID, 4343)
	pending := types.ObjectIDForReturn(producer, 0)
	ctrl.EnsureObject(pending, producer)
	orphan := types.PutObjectID(types.NilTaskID, 4344)
	sweeps := func() int {
		l.deps.mu.Lock()
		defer l.deps.mu.Unlock()
		if row := l.deps.parked[pending]; row != nil {
			return row.sweeps
		}
		return -1
	}
	probedAt := make(chan int, 1)
	l.cfg.Recon = func(id types.ObjectID) error {
		switch id {
		case orphan:
			for n := sweeps(); n >= 0 && n <= strandedPeriod; n = sweeps() {
				time.Sleep(time.Millisecond)
			}
		case pending:
			select {
			case probedAt <- sweeps():
			default:
			}
		}
		return nil
	}
	spec := tSpec(79, nil, pending, orphan)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-probedAt:
		if at > strandedPeriod+2 {
			t.Fatalf("the stranded-producer probe due at sweep %d ran at sweep %d", strandedPeriod, at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stranded-producer probe never ran")
	}
	for _, id := range []types.ObjectID{pending, orphan} {
		if err := l.cfg.Store.Put(id, []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	waitExec(t, log, spec.ID)
}
