package scheduler

import (
	"sync/atomic"
	"testing"

	"repro/internal/gcs"
	"repro/internal/types"
)

// passCounter is a control plane that signals every GetObject of one
// object: each is one pass of that dependency's resolver.
type passCounter struct {
	*gcs.Store
	obj    types.ObjectID
	passes chan struct{}
}

func (p *passCounter) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	if id == p.obj {
		select {
		case p.passes <- struct{}{}:
		default:
		}
	}
	return p.Store.GetObject(id)
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
	l.cfg.Recon = func(id types.ObjectID, _ types.TaskID) error {
		if id == dep {
			calls.Add(1)
			recon(l, dep)
		}
		return nil
	}
	spec := tSpec(77, nil, dep)
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	return l, log, spec, counting, &calls
}

// TestHealthyParkedDepSkipsStrandedProbe: a dependency parked on a healthy
// producer costs no reconstructor call — the throttle starts a period in,
// not on the first pass of every parked dependency.
func TestHealthyParkedDepSkipsStrandedProbe(t *testing.T) {
	l, log, spec, ctrl, calls := parkOnPending(t, func(*Local, types.ObjectID) {})
	<-ctrl.passes
	<-ctrl.passes // second pass begun: the first one is over
	if n := calls.Load(); n != 0 {
		t.Fatalf("healthy parked dependency cost %d reconstructor calls on its first pass", n)
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
