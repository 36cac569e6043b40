//go:build ledgerdebug

package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/transport"
)

// TestLocalRoundTripLockBudget pins how often a local task takes the node's
// two ledger locks, counted by the ledgerdebug build's counting mutex: the
// task ledger's once at its birth and once at its end, since its QUEUED,
// SCHEDULED and RUNNING stamps park in its entry while its birth is owed,
// and the tracker's once at its birth. A serial round trip — SubmitOpts, Get
// and Release of a no-op on the node it was submitted through — adds the
// Get's one look at the task ledger and the driver's retain and release of
// the result; a window of 200 no-ops waited on together adds the Wait's one
// registration. Both flushers are held, so that no flush takes either lock
// while the round trips run, and the driver runs on one processor, so that
// its Get on a task just handed to an executor yields to it once and finds
// the result stored (TestOwnerGetWatcherBudget); with two, a Get that
// resumes before the task has run looks again to park. It read about 7 task-ledger and 6 tracker
// acquisitions per serial round trip, and 6 task-ledger acquisitions per
// window task, while every stamp took the lock and a birth made three
// tracker calls.
func TestLocalRoundTripLockBudget(t *testing.T) {
	const serialTasks, serialRefs, windowTasks = 3.1, 3.1, 2.1
	const rounds, window, windows = 500, 200, 5
	reg, open := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	defer open()
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	n.TaskLedger().Flush()
	probe.holdDeltaFlush(true)
	if _, err := d.SubmitOpts("births.gated", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both flushers to block", func() bool { return probe.waiting.Load() == 2 })
	led, refs := n.TaskLedger(), n.Lifetime().Tracker()
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	tasks, trackers := led.Locks(), refs.Locks()
	for range rounds {
		d.Release(runNoop(t, d))
	}
	perTasks, perRefs := float64(led.Locks()-tasks)/rounds, float64(refs.Locks()-trackers)/rounds
	t.Logf("a serial round trip: %.2f task-ledger and %.2f tracker acquisitions", perTasks, perRefs)
	if perTasks > serialTasks {
		t.Errorf("a serial round trip takes the task ledger's lock %.2f times, budget %.1f", perTasks, serialTasks)
	}
	if perRefs > serialRefs {
		t.Errorf("a serial round trip takes the tracker's lock %.2f times, budget %.1f", perRefs, serialRefs)
	}

	tasks = led.Locks()
	for range windows {
		batch := make([]core.ObjectRef, window)
		for i := range batch {
			refs, err := d.SubmitOpts("births.noop", nil)
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = refs[0]
		}
		ready, _, err := d.Wait(ctx, batch, window, 10*time.Second)
		if err != nil || len(ready) != window {
			t.Fatalf("the window's Wait returned %d of %d ready, err %v", len(ready), window, err)
		}
		d.Release(batch...)
	}
	per := float64(led.Locks()-tasks) / (window * windows)
	t.Logf("a window task: %.2f task-ledger acquisitions", per)
	if per > windowTasks {
		t.Errorf("a window task takes the task ledger's lock %.2f times, budget %.1f", per, windowTasks)
	}
}
