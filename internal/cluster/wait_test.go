package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// waitNode boots one node over ctrl behind a probe (probedNode) with two
// gated no-ops: each run of "wait.a" or "wait.b" ends when it takes one
// release from its gate's channel, and every run ends once the test does,
// ahead of the node's shutdown.
func waitNode(t *testing.T, ctrl gcs.API) (n *node.Node, probe *ctrlProbe, a, b chan struct{}) {
	reg := core.NewRegistry()
	a, b = make(chan struct{}), make(chan struct{})
	end := make(chan struct{})
	gated := func(gate chan struct{}) core.Function {
		return func(*core.TaskContext, [][]byte) ([][]byte, error) {
			select {
			case <-gate:
			case <-end:
			}
			return [][]byte{nil}, nil
		}
	}
	reg.Register("wait.a", gated(a))
	reg.Register("wait.b", gated(b))
	n, probe = probedNode(t, ctrl, transport.NewInproc(0), reg)
	t.Cleanup(func() { close(end) })
	return n, probe, a, b
}

// submitGated submits k runs of fn that all run at once on the driver's
// node.
func submitGated(t *testing.T, d *core.Client, fn string, k int) []core.ObjectRef {
	t.Helper()
	call := core.Call{Function: fn, Resources: types.CPU(0.0001)}
	refs := make([]core.ObjectRef, k)
	for i := range refs {
		var err error
		if refs[i], err = d.Submit1(call); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

// watchers sums the end registrations n's ledger holds for refs' tasks.
func watchers(n *node.Node, refs []core.ObjectRef) (sum int) {
	for _, r := range refs {
		sum += n.TaskLedger().Watchers(r.ID.Producer())
	}
	return sum
}

type waitResult struct {
	ready, pending []core.ObjectRef
	err            error
}

// asyncWait runs d.Wait on its own goroutine.
func asyncWait(ctx context.Context, d *core.Client, refs []core.ObjectRef, num int, timeout time.Duration) <-chan waitResult {
	out := make(chan waitResult, 1)
	go func() {
		ready, pending, err := d.Wait(ctx, refs, num, timeout)
		out <- waitResult{ready, pending, err}
	}()
	return out
}

// TestWindowWaitWakeBudget pins what a Wait on a window of owned tasks
// costs while they end one at a time, in counts: 200 gated no-ops run at
// once on the driver's node, the driver Waits on all 200, and they are
// released one by one. The ledger tells the Wait at most twice (it tells
// once, when the last ends, unless a poll saw them all first), the Wait
// reads no control-plane record and subscribes to nothing, and it leaves no
// registration behind.
func TestWindowWaitWakeBudget(t *testing.T) {
	const window = 200
	n, probe, gate, _ := waitNode(t, gcs.NewStore(4))
	d, ctx := core.NewClient(n), testCtx(t)
	woken := n.Metrics().Counter("lifetime.waits.woken")
	refs := submitGated(t, d, "wait.a", window)
	tells, calls := woken.Value(), probe.onWait.Load()
	res := asyncWait(ctx, d, refs, window, -1)
	waitFor(t, 10*time.Second, "the Wait to register", func() bool { return watchers(n, refs) == window })
	for range window {
		gate <- struct{}{}
	}
	r := <-res
	if r.err != nil || len(r.ready) != window {
		t.Fatalf("Wait: %d ready, %v", len(r.ready), r.err)
	}
	if got := woken.Value() - tells; got > 2 {
		t.Fatalf("the ledger told the Wait %d times, want at most 2", got)
	}
	if got := probe.onWait.Load() - calls; got != 0 {
		t.Fatalf("the Wait made %d control-plane calls, want 0", got)
	}
	for i, ref := range refs {
		if w := n.TaskLedger().Watchers(ref.ID.Producer()); w != 0 {
			t.Fatalf("task %d has %d end registrations after the Wait, want 0", i, w)
		}
	}
	d.Release(refs...)
}

// TestWaitReturnsAtTheKthEnd: a Wait for 100 of 200 owned refs, whose other
// 100 tasks stay gated, returns when the 100th of the released ones ends,
// not before, with those 100 ready.
func TestWaitReturnsAtTheKthEnd(t *testing.T) {
	const half = 100
	n, probe, a, _ := waitNode(t, gcs.NewStore(4))
	d, ctx := core.NewClient(n), testCtx(t)
	woken := n.Metrics().Counter("lifetime.waits.woken")
	var refs []core.ObjectRef
	for range half {
		refs = append(refs, submitGated(t, d, "wait.a", 1)...)
		refs = append(refs, submitGated(t, d, "wait.b", 1)...)
	}
	tells, calls := woken.Value(), probe.onWait.Load()
	res := asyncWait(ctx, d, refs, half, -1)
	waitFor(t, 10*time.Second, "the Wait to register", func() bool { return watchers(n, refs) == 2*half })
	for range half - 1 {
		a <- struct{}{}
	}
	select {
	case r := <-res:
		t.Fatalf("the Wait returned with %d of %d ended: %d ready, %v", half-1, half, len(r.ready), r.err)
	case <-time.After(50 * time.Millisecond):
	}
	a <- struct{}{}
	r := <-res
	if r.err != nil || len(r.ready) != half || len(r.pending) != half {
		t.Fatalf("Wait: %d ready, %d pending, %v; want %d and %d", len(r.ready), len(r.pending), r.err, half, half)
	}
	for i, ref := range refs {
		if gated := i%2 == 1; !gated && !n.Store().Contains(ref.ID) {
			t.Fatalf("ref %d returned ready is not stored", i)
		}
	}
	for _, ref := range r.pending {
		if n.Store().Contains(ref.ID) {
			t.Fatal("a gated task's ref returned pending")
		}
	}
	if got := woken.Value() - tells; got > 2 {
		t.Fatalf("the ledger told the Wait %d times, want at most 2", got)
	}
	if got := probe.onWait.Load() - calls; got != 0 {
		t.Fatalf("the Wait made %d control-plane calls, want 0", got)
	}
	if w := watchers(n, refs); w != 0 {
		t.Fatalf("%d end registrations left after the Wait", w)
	}
}

// TestWaitFollowsADisownedTask: a Wait on the return of an owned task that
// is disowned mid-wait is told at once and follows the ref through the
// node's dependency table from then on. The return is made ready on
// another node only, so the store could not see it: only the row the
// disown led to.
func TestWaitFollowsADisownedTask(t *testing.T) {
	ctrl := gcs.NewStore(4)
	n, _, _, _ := waitNode(t, ctrl)
	d, ctx := core.NewClient(n), testCtx(t)
	refs := submitGated(t, d, "wait.a", 1)
	res := asyncWait(ctx, d, refs, 1, -1)
	waitFor(t, 10*time.Second, "the Wait to register", func() bool { return watchers(n, refs) == 1 })
	n.TaskLedger().Disown(refs[0].ID.Producer())
	waitFor(t, 10*time.Second, "the Wait to follow the ref", func() bool {
		return n.Metrics().Snapshot().Gauges["scheduler.waiting.objects"] == 1
	})
	ctrl.AddObjectLocation(refs[0].ID, types.NodeID{0xEE}, 8)
	r := <-res
	if r.err != nil || len(r.ready) != 1 {
		t.Fatalf("Wait: %d ready, %v", len(r.ready), r.err)
	}
}

// TestWaitThatEndsEarlyLeavesNoRegistration: a Wait on owned tasks that
// times out, and one whose context ends, leave no end registration behind.
func TestWaitThatEndsEarlyLeavesNoRegistration(t *testing.T) {
	n, _, _, _ := waitNode(t, gcs.NewStore(4))
	d := core.NewClient(n)
	refs := submitGated(t, d, "wait.a", 8)
	ready, pending, err := d.Wait(testCtx(t), refs, 1, 20*time.Millisecond)
	if err != nil || len(ready) != 0 || len(pending) != len(refs) {
		t.Fatalf("Wait with a timeout: %d ready, %d pending, %v", len(ready), len(pending), err)
	}
	if w := watchers(n, refs); w != 0 {
		t.Fatalf("%d end registrations left after a Wait timed out", w)
	}

	ctx, cancel := context.WithCancel(context.Background())
	res := asyncWait(ctx, d, refs, len(refs), -1)
	waitFor(t, 10*time.Second, "the Wait to register", func() bool { return watchers(n, refs) == len(refs) })
	cancel()
	if r := <-res; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("Wait whose context ended: %v, want context.Canceled", r.err)
	}
	if w := watchers(n, refs); w != 0 {
		t.Fatalf("%d end registrations left after a Wait's context ended", w)
	}
}
