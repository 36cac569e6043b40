package scheduler

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// Dispatch runs on the goroutine of the event that makes a task admissible
// (DESIGN.md §3.1): there is no dispatcher to wake. These tests pin what that
// changed — when a task starts, what the spill threshold counts — and what
// it must not: Start's gate, Stop's guarantees.

// unstartedLocal is buildLocal without SetExec and Start: the state between
// NewLocal and Start in which the node wires the executor.
func unstartedLocal(t *testing.T, total types.Resources, spillThreshold int) (*Local, *gcs.Store, *objectstore.Store, *lifetime.TaskLedger) {
	t.Helper()
	ctrl := gcs.NewStore(4)
	nid := tNode(1)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: total})
	store := objectstore.New(nid, ctrl, 0)
	led := ledgertest.New(ctrl, nid)
	l := NewLocal(LocalConfig{Node: nid, Total: total, Ctrl: ctrl, Store: store, Ledger: led, SpillThreshold: spillThreshold})
	t.Cleanup(l.Stop)
	return l, ctrl, store, led
}

// TestSubmitBeforeStartQueuesUntilStart: a task submitted before Start —
// before Exec is even wired — waits in the queue and runs at Start.
func TestSubmitBeforeStartQueuesUntilStart(t *testing.T) {
	l, _, store, led := unstartedLocal(t, types.CPU(2), SpillNever)
	spec := tSpec(1, nil)
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	if l.QueueLen() != 1 {
		t.Fatalf("queue = %d before Start, want the task parked in it", l.QueueLen())
	}
	if _, _, dispatched := l.Stats(); dispatched != 0 {
		t.Fatalf("dispatched %d tasks before Start", dispatched)
	}
	log := newExecLog()
	l.SetExec(log.exec(led, store))
	l.Start()
	waitExec(t, log, spec.ID)
}

// gatedLocal is a started scheduler whose tasks block until release.
func gatedLocal(t *testing.T, total types.Resources, spillThreshold int) (l *Local, ran *atomic.Int64, release func()) {
	t.Helper()
	l, _, _, led := unstartedLocal(t, total, spillThreshold)
	gate := make(chan struct{})
	ran = new(atomic.Int64)
	l.SetExec(func(ctx context.Context, spec types.TaskSpec, args [][]byte) {
		<-gate
		led.Transition(spec.ID, types.TaskFinished, types.NilWorkerID, "")
		ran.Add(1)
	})
	l.Start()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before l.Stop (cleanups run last-in first-out), which waits for the tasks
	return l, ran, release
}

// TestSpillThresholdCountsTasksThatDoNotFit: the backlog the threshold is
// compared with holds only tasks the node has no free resources for. A
// burst the pool has headroom for is admitted by its own Submit calls — on
// the submitting goroutine, before they return — and spills nothing,
// however fast it arrives; a burst that exceeds the pool spills exactly
// what arrives after the backlog reached the threshold.
func TestSpillThresholdCountsTasksThatDoNotFit(t *testing.T) {
	const burst, threshold = 200, 4
	t.Run("headroom", func(t *testing.T) {
		l, ran, release := gatedLocal(t, types.CPU(4), threshold)
		for i := uint64(0); i < burst; i++ {
			if _, err := l.Submit(tSpec(100+i, types.CPU(0.0001)), false); err != nil {
				t.Fatal(err)
			}
		}
		if _, spilled, dispatched := l.Stats(); spilled != 0 || dispatched != burst {
			t.Fatalf("spilled=%d dispatched=%d, want 0 and %d: every task fits", spilled, dispatched, burst)
		}
		release()
		awaitCount(t, ran, burst)
	})
	t.Run("over capacity", func(t *testing.T) {
		l, ran, release := gatedLocal(t, types.CPU(2), threshold)
		for i := uint64(0); i < burst; i++ {
			if _, err := l.Submit(tSpec(400+i, types.CPU(1)), false); err != nil {
				t.Fatal(err)
			}
		}
		// Two run, the next `threshold` queue, the rest spill.
		const kept = 2 + threshold
		if _, spilled, dispatched := l.Stats(); spilled != burst-kept || dispatched != 2 || l.QueueLen() != threshold {
			t.Fatalf("spilled=%d dispatched=%d queue=%d, want %d, 2 and %d", spilled, dispatched, l.QueueLen(), burst-kept, threshold)
		}
		release()
		awaitCount(t, ran, kept)
	})
}

func awaitCount(t *testing.T, n *atomic.Int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); n.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks ran, want %d", n.Load(), want)
		}
	}
}

// TestStopContextReachesRunningTask: the one context every task runs under
// is cancelled by Stop, and Stop waits for the task to return.
func TestStopContextReachesRunningTask(t *testing.T) {
	l, _, _, _ := unstartedLocal(t, types.CPU(1), SpillNever)
	running := make(chan struct{})
	var sawCancel atomic.Bool
	l.SetExec(func(ctx context.Context, spec types.TaskSpec, args [][]byte) {
		close(running)
		<-ctx.Done()
		sawCancel.Store(true)
	})
	l.Start()
	if _, err := l.Submit(tSpec(1, nil), false); err != nil {
		t.Fatal(err)
	}
	<-running
	l.Stop()
	if !sawCancel.Load() {
		t.Fatal("Stop returned before the running task saw its context cancelled")
	}
}

// TestStopRacingSubmitSideDispatch: submitters dispatch on their own
// goroutines while Stop runs. Whatever the interleaving, Stop returns (no
// leaked wait-group count), nothing starts after it has returned, and the
// resource books are balanced.
func TestStopRacingSubmitSideDispatch(t *testing.T) {
	for round := 0; round < 20; round++ {
		l, _, _, led := unstartedLocal(t, types.CPU(4), SpillNever)
		var stopReturned, lateStart atomic.Bool
		l.SetExec(func(ctx context.Context, spec types.TaskSpec, args [][]byte) {
			if stopReturned.Load() {
				lateStart.Store(true)
			}
			led.Transition(spec.ID, types.TaskFinished, types.NilWorkerID, "")
		})
		l.Start()
		var submitters sync.WaitGroup
		begin := make(chan struct{})
		for g := uint64(0); g < 4; g++ {
			submitters.Add(1)
			go func(g uint64) {
				defer submitters.Done()
				<-begin
				for i := uint64(0); i < 50; i++ {
					if _, err := l.Submit(tSpec(1000*g+i+1, nil), false); err != nil {
						return // ErrStopped: the scheduler is gone
					}
				}
			}(g)
		}
		close(begin)
		l.Stop()
		stopReturned.Store(true)
		submitters.Wait()
		if lateStart.Load() {
			t.Fatal("a task started after Stop returned")
		}
		if total, avail, _, _ := l.Accounting(); avail[types.ResCPU] != total[types.ResCPU] {
			t.Fatalf("round %d: resource books unbalanced after Stop: avail %v of %v", round, avail, total)
		}
		if l.Busy() != 0 {
			t.Fatalf("round %d: %d tasks still held after Stop", round, l.Busy())
		}
	}
}
