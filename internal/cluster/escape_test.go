package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// Held-back return locations (DESIGN.md §8): the return of a task that ran
// on the node it was submitted through reaches the object table when it
// escapes — as the argument of a task that spills — or in the node's next
// task-ledger flush, and never if its copy is deleted first. Most tests here
// hold the flush's announcement back (holdAnnounce), so that an escape path
// is the only way a location reaches the table.

// escapeFuncs are a CPU task the driver's node runs, one that waits for a
// gate, and GPU tasks only the second node can run.
type escapeFuncs struct {
	reg     *core.Registry
	local   core.Func1[int, int]    // returns its argument
	gated   core.Func1[int, int]    // signals entered, waits for gate, returns its argument
	inc     core.Func1[int, int]    // returns its argument + 1; run onGPU
	blob    core.Func1[int, []byte] // returns that many bytes; run onGPU
	size    core.Func1[[]byte, int] // returns the length of its argument; run onGPU
	runs    atomic.Int64            // executions of local and gated
	entered chan struct{}
	gate    chan struct{}
	open    func() // closes gate, once
}

func newEscapeFuncs(t *testing.T) *escapeFuncs {
	f := &escapeFuncs{reg: core.NewRegistry(), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	var once sync.Once
	f.open = func() { once.Do(func() { close(f.gate) }) }
	f.local = core.Register1(f.reg, "esc.local", func(tc *core.TaskContext, x int) (int, error) {
		f.runs.Add(1)
		return x, nil
	})
	f.gated = core.Register1(f.reg, "esc.gated", func(tc *core.TaskContext, x int) (int, error) {
		f.runs.Add(1)
		f.entered <- struct{}{}
		<-f.gate
		return x, nil
	})
	f.inc = core.Register1(f.reg, "esc.inc", func(tc *core.TaskContext, x int) (int, error) { return x + 1, nil })
	f.blob = core.Register1(f.reg, "esc.blob", func(tc *core.TaskContext, n int) ([]byte, error) { return make([]byte, n), nil })
	f.size = core.Register1(f.reg, "esc.size", func(tc *core.TaskContext, b []byte) (int, error) { return len(b), nil })
	return f
}

// escapeCluster boots the driver's CPU-only node 0 and a GPU node 1. The
// gate opens ahead of the shutdown, should a test fail with it shut.
func escapeCluster(t *testing.T, f *escapeFuncs) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 2, PerNodeResources: []types.Resources{types.CPU(4), types.GPU(4, 1)}, Registry: f.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	t.Cleanup(f.open)
	return c
}

// holdAnnounce flushes n's task ledger, announcing what its store holds
// back, and then stops the flushes from announcing until the returned func
// (or the test's end) lets them again. The flush it makes after the switch
// waits out one already under way.
func holdAnnounce(t *testing.T, n *node.Node) (release func()) {
	t.Helper()
	n.TaskLedger().Flush()
	n.TaskLedger().SetAnnouncer(nil)
	n.TaskLedger().Flush()
	release = func() { n.TaskLedger().SetAnnouncer(n.Store().AnnounceDeferred) }
	t.Cleanup(release)
	return release
}

func locatedOn(ctrl gcs.API, id types.ObjectID, n *node.Node) bool {
	info, _ := ctrl.GetObject(id)
	return slices.Contains(info.Locations, n.ID())
}

// TestLocalReturnLocationBudget pins what a local result's location costs
// the control plane: nothing on the way from submit to Get, one
// AddObjectLocation in the owner's next flush, and nothing at all if the
// copy is collected first.
func TestLocalReturnLocationBudget(t *testing.T) {
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	release := holdAnnounce(t, n)
	probe.adds.Store(0)
	ref := runNoop(t, d)
	if got := probe.adds.Load(); got != 0 {
		t.Fatalf("a warmed local round trip made %d AddObjectLocation calls, want 0", got)
	}
	release()
	n.TaskLedger().Flush()
	if got := probe.adds.Load(); got != 1 || !locatedOn(probe.API, ref.ID, n) {
		t.Fatalf("the flush made %d AddObjectLocation calls (located %v), want 1", got, locatedOn(probe.API, ref.ID, n))
	}

	release = holdAnnounce(t, n)
	probe.adds.Store(0)
	ref = runNoop(t, d)
	drainedAndProposed(t, n, d, ref)
	release()
	n.TaskLedger().Flush()
	if a, r := probe.adds.Load(), probe.removes.Load(); a != 0 || r != 0 {
		t.Fatalf("a result collected before its announcement made %d AddObjectLocation and %d RemoveObjectLocation calls, want 0 and 0", a, r)
	}
}

// TestEscapeOfAnArgumentStillRunning: a task spilled from the driver's node
// takes as argument the return of a task still running there. The spill
// marks the argument, so that its Put publishes the location at once: it
// is in the table when its producer finishes, with announcements held.
func TestEscapeOfAnArgumentStillRunning(t *testing.T) {
	f := newEscapeFuncs(t)
	c := escapeCluster(t, f)
	a := c.Node(0)
	holdAnnounce(t, a)
	d, ctx := c.Driver(), testCtx(t)

	arg, err := f.gated.Remote(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-f.entered
	out, err := f.inc.RemoteRef(d, arg, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Store().EscapeMarks(); n != 1 {
		t.Fatalf("%d escape marks after the spill, want 1", n)
	}
	finished := make(chan types.TaskID, 1)
	a.TaskLedger().Notify(finished, arg.Ref.Task)
	f.open()
	select {
	case <-finished:
	case <-ctx.Done():
		t.Fatal("the producer did not finish")
	}
	if !locatedOn(c.API, arg.Ref.ID, a) {
		t.Fatal("the escaped argument's location was not in the table when its producer finished")
	}
	if v, err := core.Get(ctx, d, out); err != nil || v != 2 {
		t.Fatalf("inc(gated(1)) = %d, %v", v, err)
	}
	if runs, n := f.runs.Load(), a.Store().EscapeMarks(); runs != 1 || n != 0 {
		t.Fatalf("the producer ran %d times and %d escape marks are left, want 1 and 0", runs, n)
	}
}

// TestEscapeOfAResidentArgument: a task spilled from the driver's node
// takes as argument a return already held back there. The spill publishes
// the location before the task is handed on, with announcements held.
func TestEscapeOfAResidentArgument(t *testing.T) {
	f := newEscapeFuncs(t)
	c := escapeCluster(t, f)
	a := c.Node(0)
	holdAnnounce(t, a)
	d, ctx := c.Driver(), testCtx(t)

	arg, err := f.local.Remote(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, arg); err != nil || v != 1 {
		t.Fatalf("local(1) = %d, %v", v, err)
	}
	if locatedOn(c.API, arg.Ref.ID, a) {
		t.Fatal("a local return was published before it escaped")
	}
	out, err := f.inc.RemoteRef(d, arg, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if !locatedOn(c.API, arg.Ref.ID, a) {
		t.Fatal("the spill was published without its held-back argument's location")
	}
	if v, err := core.Get(ctx, d, out); err != nil || v != 2 {
		t.Fatalf("inc(local(1)) = %d, %v", v, err)
	}
	if runs := f.runs.Load(); runs != 1 {
		t.Fatalf("the producer ran %d times, want 1", runs)
	}
}

// TestUnescapedReturnAnnouncedWithinTwoFlushes: a local return nothing
// escapes reaches the table in the first task-ledger flush that starts
// after its Put: it is never missing once two flushes have completed since
// its Get returned. Counted in flushes, not in time.
func TestUnescapedReturnAnnouncedWithinTwoFlushes(t *testing.T) {
	f := newEscapeFuncs(t)
	c := singleNodeWith(t, f.reg)
	n, d, ctx := c.Node(0), c.Driver(), testCtx(t)
	for i := range 20 {
		ref, err := f.local.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, ref); err != nil || v != i {
			t.Fatalf("local(%d) = %d, %v", i, v, err)
		}
		since := n.TaskFlushes()
		for {
			flushes := n.TaskFlushes() - since
			if locatedOn(c.API, ref.Ref.ID, n) {
				break
			}
			if flushes >= 2 {
				t.Fatalf("return %d not in the table after %d flushes", i, flushes)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestDuplicateOfAHeldBackResultIsNotRerun: a second submission of a
// finished task whose return is held back on this node finds the return
// here and does not run the task again.
func TestDuplicateOfAHeldBackResultIsNotRerun(t *testing.T) {
	f := newEscapeFuncs(t)
	c := singleNodeWith(t, f.reg)
	n, ctx := c.Node(0), testCtx(t)
	holdAnnounce(t, n)
	root := types.DeriveTaskID(types.NilTaskID, 0xE5)

	ref, err := f.local.Remote(core.NewClientWithRoot(n, root), 5)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, c.Driver(), ref); err != nil || v != 5 {
		t.Fatalf("local(5) = %d, %v", v, err)
	}
	landed(t, n, ref.Ref) // FINISHED in the table, the return held back
	if locatedOn(c.API, ref.Ref.ID, n) {
		t.Fatal("the return was published before the duplicate")
	}
	dup, err := f.local.Remote(core.NewClientWithRoot(n, root), 5)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Ref.Task != ref.Ref.Task {
		t.Fatal("the second submission is not a duplicate")
	}
	if v, err := core.Get(ctx, c.Driver(), dup); err != nil || v != 5 {
		t.Fatalf("duplicate local(5) = %d, %v", v, err)
	}
	landed(t, n, dup.Ref) // the Get reads the held-back copy: a re-run ends later
	if runs := f.runs.Load(); runs != 1 {
		t.Fatalf("the task ran %d times, want 1", runs)
	}
}

// TestEscapeMarksDoNotOutliveTheirObjects: spills mark the arguments not
// on the driver's node yet. A mark on a local return is cleared by its Put;
// one on an object made and consumed on the other node, too large to be
// delivered back, by the object's collection.
func TestEscapeMarksDoNotOutliveTheirObjects(t *testing.T) {
	const rounds = 20
	f := newEscapeFuncs(t)
	c := escapeCluster(t, f)
	a, d, ctx := c.Node(0), c.Driver(), testCtx(t)
	var refs []core.ObjectRef
	for i := range rounds {
		arg, err := f.local.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.inc.RemoteRef(d, arg, onGPU)
		if err != nil {
			t.Fatal(err)
		}
		far, err := f.blob.Remote(d, 100<<10, onGPU)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.size.RemoteRef(d, far, onGPU)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, out); err != nil || v != i+1 {
			t.Fatalf("inc(local(%d)) = %d, %v", i, v, err)
		}
		if v, err := core.Get(ctx, d, n); err != nil || v != 100<<10 {
			t.Fatalf("size(blob) = %d, %v", v, err)
		}
		refs = append(refs, arg.Ref, out.Ref, far.Ref, n.Ref)
	}
	if n := a.Store().EscapeMarks(); n != rounds {
		t.Fatalf("%d escape marks with every result read, want %d: one per object made on the other node", n, rounds)
	}
	d.Release(refs...)
	waitFor(t, 10*time.Second, "the escape marks to be cleared", func() bool {
		return a.Store().EscapeMarks() == 0 && c.Node(1).Store().EscapeMarks() == 0
	})
}
