package core_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// Owner-side Get (DESIGN.md §13): a Get of a future whose task the caller's
// node owns waits on that node's store and ledger alone, and hands over to
// the resolver when the tenure ends without the object. These tests pin the
// failure and race matrix around that hand-over. Every wait is on an event;
// no outcome depends on timing.

// ownerFuncs are the tasks the matrix is made of. entered receives one
// signal per gated attempt that has started; gate lets them all go.
type ownerFuncs struct {
	reg   *core.Registry
	neg   core.Func1[int, int] // returns -arg, counted in negRuns
	hold  core.Func1[int, int] // gated; returns arg, or an error if its context is cancelled first
	boom  core.Func1[int, int] // gated; always fails
	flaky core.Func1[int, int] // first attempt gated and failing; later attempts return -arg

	negRuns, flakyRuns atomic.Int64
	entered            chan struct{}
	gate               chan struct{}
	open               sync.Once
}

func newOwnerFuncs() *ownerFuncs {
	f := &ownerFuncs{reg: core.NewRegistry(), entered: make(chan struct{}, 8), gate: make(chan struct{})}
	gated := func(tc *core.TaskContext) error {
		f.entered <- struct{}{}
		select {
		case <-f.gate:
			return nil
		case <-tc.Context().Done():
			return tc.Context().Err()
		}
	}
	f.neg = core.Register1(f.reg, "neg", func(tc *core.TaskContext, x int) (int, error) {
		f.negRuns.Add(1)
		return -x, nil
	})
	f.hold = core.Register1(f.reg, "hold", func(tc *core.TaskContext, x int) (int, error) { return x, gated(tc) })
	f.boom = core.Register1(f.reg, "boom", func(tc *core.TaskContext, x int) (int, error) {
		if err := gated(tc); err != nil {
			return 0, err
		}
		return 0, errors.New("boom")
	})
	f.flaky = core.Register1(f.reg, "flaky", func(tc *core.TaskContext, x int) (int, error) {
		if f.flakyRuns.Add(1) == 1 {
			if err := gated(tc); err != nil {
				return 0, err
			}
			return 0, errors.New("first attempt")
		}
		return -x, nil
	})
	return f
}

func (f *ownerFuncs) release() { f.open.Do(func() { close(f.gate) }) }

// ownerCluster boots nodes of the given CPU counts. The gate opens before
// the shutdown so no task outlives the test blocked on it.
func ownerCluster(t *testing.T, f *ownerFuncs, cpus ...float64) *cluster.Cluster {
	t.Helper()
	res := make([]types.Resources, len(cpus))
	for i, c := range cpus {
		res[i] = types.CPU(c)
	}
	c, err := cluster.New(cluster.Config{Nodes: len(res), PerNodeResources: res, Registry: f.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.release(); c.Shutdown() })
	return c
}

// probed is a node that reports each Get reaching its owner-side wait.
type probed struct {
	*node.Node
	reached chan struct{}
}

func (p *probed) ResolveObject(ctx context.Context, id types.ObjectID) ([]byte, error) {
	p.reached <- struct{}{}
	return p.Node.ResolveObject(ctx, id)
}

func probedClient(n *node.Node) (*core.Client, <-chan struct{}) {
	p := &probed{Node: n, reached: make(chan struct{}, 8)}
	return core.NewClient(p), p.reached
}

type getResult struct {
	v   int
	err error
}

func asyncGet(ctx context.Context, cl *core.Client, ref core.Ref[int]) <-chan getResult {
	out := make(chan getResult, 1)
	go func() {
		v, err := core.Get(ctx, cl, ref)
		out <- getResult{v, err}
	}()
	return out
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestOwnedGetSurfacesTaskFailure: the waiter is woken by the error payload
// the executor stores before the terminal stamp, and reports it.
func TestOwnedGetSurfacesTaskFailure(t *testing.T) {
	f := newOwnerFuncs()
	c := ownerCluster(t, f, 2)
	d, reached := probedClient(c.Node(0))
	ref, err := f.boom.Remote(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := asyncGet(testCtx(t), d, ref)
	<-reached
	<-f.entered
	f.release()
	if r := <-got; !errors.Is(r.err, core.ErrTaskFailed) || !strings.Contains(r.err.Error(), "boom") {
		t.Fatalf("Get of a failing owned task: %v, want ErrTaskFailed carrying the task's error", r.err)
	}
}

// TestOwnedGetWaitsOutARetry: a failed attempt that will be retried is not
// an end of tenure and stores nothing; the waiter sleeps through it and
// returns the retry's value.
func TestOwnedGetWaitsOutARetry(t *testing.T) {
	f := newOwnerFuncs()
	c := ownerCluster(t, f, 2)
	d, reached := probedClient(c.Node(0))
	ref, err := f.flaky.Remote(d, 4, core.WithMaxRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	got := asyncGet(testCtx(t), d, ref)
	<-reached
	<-f.entered
	f.release()
	if r := <-got; r.err != nil || r.v != -4 {
		t.Fatalf("Get across a retry = %d, %v, want the second attempt's -4", r.v, r.err)
	}
	if n := f.flakyRuns.Load(); n != 2 {
		t.Fatalf("%d attempts ran, want 2", n)
	}
}

// queuedBehindBlocker fills node 0's one CPU with a gated task and submits
// a second task that must queue behind it: owned by node 0, not running.
func queuedBehindBlocker(t *testing.T, f *ownerFuncs, d *core.Client) core.Ref[int] {
	t.Helper()
	if _, err := f.hold.Remote(d, 0); err != nil {
		t.Fatal(err)
	}
	<-f.entered
	ref, err := f.neg.Remote(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestOwnedGetFollowsATaskDrainedAway: the awaited task is evicted to
// another node while the Get waits (the drain protocol's backlog hand-off).
// The ledger's end-of-tenure event sends the waiter to the resolver, which
// finds the value wherever the task ended up running.
func TestOwnedGetFollowsATaskDrainedAway(t *testing.T) {
	f := newOwnerFuncs()
	c := ownerCluster(t, f, 1, 1)
	n0 := c.Node(0)
	d, reached := probedClient(n0)
	ref := queuedBehindBlocker(t, f, d)
	if !n0.TaskLedger().Owns(ref.Ref.Task) {
		t.Fatal("node 0 does not own the task queued on it")
	}
	got := asyncGet(testCtx(t), d, ref)
	<-reached

	n0.Scheduler().SetDraining(true)
	if n := n0.Scheduler().DrainBacklog(); n != 1 {
		t.Fatalf("DrainBacklog handed off %d tasks, want the one queued", n)
	}
	if r := <-got; r.err != nil || r.v != -5 {
		t.Fatalf("Get of a task drained away mid-wait = %d, %v", r.v, r.err)
	}
	if n0.TaskLedger().Owns(ref.Ref.Task) {
		t.Fatal("node 0 still owns the task it handed off")
	}
	await(t, "the task to be recorded FINISHED on node 1", func() bool {
		st, ok := c.API.GetTask(ref.Ref.Task)
		return ok && st.Status == types.TaskFinished && st.Node == c.Node(1).ID()
	})
	n0.Scheduler().SetDraining(false)
	chaostest.New(c.API).AwaitTaskConservation(t, 10*time.Second, []types.TaskID{ref.Ref.Task})
}

// TestGetSurvivesTheOwnersDeath: the waiter sits on another node than the
// task's owner, so it is in the resolver from the start; the owner dies
// with the task still queued, and the replay produces the value. The
// driver's reference dies with the owner's node. A waiter holding one of its
// own always gets the value; an object nothing references any more may be
// retired with its lineage before the replay runs (DESIGN.md §17), so a
// waiter holding none gets the value or ErrReclaimed.
func TestGetSurvivesTheOwnersDeath(t *testing.T) {
	for _, held := range []bool{true, false} {
		name := map[bool]string{true: "waiter holds a reference", false: "no reference survives"}[held]
		t.Run(name, func(t *testing.T) {
			f := newOwnerFuncs()
			// The survivor has room for both orphans: the owner-death transfer
			// re-places the blocker too, and it blocks again wherever it lands.
			c := ownerCluster(t, f, 1, 2)
			ref := queuedBehindBlocker(t, f, c.Driver())
			await(t, "the task's output to be recorded", func() bool {
				_, ok := c.API.GetObject(ref.Ref.ID)
				return ok
			})
			if held {
				c.Node(1).RetainObject(ref.Ref.ID)
				c.Node(1).Lifetime().Tracker().Flush()
			}
			waiter, reached := probedClient(c.Node(1))
			got := asyncGet(testCtx(t), waiter, ref)
			<-reached
			c.KillNode(0) // cancels the blocker's context; the queued task dies with the queue
			r := <-got
			if r.err == nil && r.v == -5 || !held && errors.Is(r.err, core.ErrReclaimed) {
				return
			}
			t.Fatalf("Get after the owner died = %d, %v", r.v, r.err)
		})
	}
}

// TestOwnedGetOfAnEvictedOutput: the output is gone from the store by the
// time the Get reads it. Whether the ledger still holds the finished task
// or has already dropped it, the Get falls to the resolver — which replays
// the task — and does not wait for an arrival that already happened.
func TestOwnedGetOfAnEvictedOutput(t *testing.T) {
	f := newOwnerFuncs()
	c := ownerCluster(t, f, 2)
	d, ctx := c.Driver(), testCtx(t)
	ref, err := f.neg.Remote(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, ref); err != nil || v != -3 {
		t.Fatalf("neg(3) = %d, %v", v, err)
	}
	if !c.Node(0).Store().Delete(ref.Ref.ID) {
		t.Fatal("the output was not in the store")
	}
	if v, err := core.Get(ctx, d, ref); err != nil || v != -3 {
		t.Fatalf("Get of an evicted output = %d, %v", v, err)
	}
	if n := f.negRuns.Load(); n != 2 {
		t.Fatalf("the task ran %d times, want 2: the second Get is served by a replay", n)
	}
}

// TestOwnedGetHonoursItsContext: cancelling the waiter's context returns
// at once with the context's error; the task is untouched and completes for
// the next waiter.
func TestOwnedGetHonoursItsContext(t *testing.T) {
	f := newOwnerFuncs()
	c := ownerCluster(t, f, 2)
	d, reached := probedClient(c.Node(0))
	ref, err := f.hold.Remote(d, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(testCtx(t))
	first := asyncGet(ctx, d, ref)
	<-reached
	<-f.entered
	cancel()
	if r := <-first; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("Get under a cancelled context: %d, %v", r.v, r.err)
	}
	second := asyncGet(testCtx(t), d, ref)
	<-reached
	f.release()
	if r := <-second; r.err != nil || r.v != 9 {
		t.Fatalf("the second waiter got %d, %v", r.v, r.err)
	}
}

// TestOwnedGetReturnsWhenItsNodeStops: the node shuts down under a Get
// whose task never got to run.
func TestOwnedGetReturnsWhenItsNodeStops(t *testing.T) {
	f := newOwnerFuncs()
	c := ownerCluster(t, f, 1)
	d, reached := probedClient(c.Node(0))
	ref := queuedBehindBlocker(t, f, d)
	got := asyncGet(testCtx(t), d, ref)
	<-reached
	c.Shutdown()
	if r := <-got; !errors.Is(r.err, scheduler.ErrStopped) {
		t.Fatalf("Get on a stopped node: %d, %v, want scheduler.ErrStopped", r.v, r.err)
	}
}
