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

// Held-back return locations (DESIGN.md §17): the return of a task that ran
// on the node it was submitted through reaches the object table when its
// task's birth lands — in the node's next task-ledger flush, or at once when
// a spilled task takes it as an argument — and never if its copy is
// deleted first. Most tests here hold back what the ledger's flushes
// announce (holdAnnounce), so that the escape paths are tried on their own.

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
// back, and then unsets the ledger's collector, so that the births its
// flushes land announce nothing, until the returned func (or the test's
// end) sets it again. A return stored after its birth landed is still
// announced at its Put. The flush it makes after the switch waits out one
// already under way.
func holdAnnounce(t *testing.T, n *node.Node) (release func()) {
	t.Helper()
	n.TaskLedger().Flush()
	n.TaskLedger().SetCollector(nil)
	n.TaskLedger().Flush()
	release = func() { n.TaskLedger().SetCollector(n.Lifetime()) }
	t.Cleanup(release)
	return release
}

func locatedOn(ctrl gcs.API, id types.ObjectID, n *node.Node) bool {
	info, _ := ctrl.GetObject(id)
	return slices.Contains(info.Locations, n.ID())
}

// terminal waits until n's task ledger holds task terminal, or no longer
// holds it: its executor has stored its returns and stamped it.
func terminal(t *testing.T, n *node.Node, task types.TaskID) {
	t.Helper()
	waitFor(t, 10*time.Second, "the task's terminal stamp", func() bool {
		st, ok := n.TaskLedger().Lookup(task)
		return !ok || st.Status.Terminal()
	})
}

// TestLocalReturnLocationBudget pins what a local result's location costs
// the control plane, with the task ledger's flusher held by a gated task's
// delta: nothing on the way from submit to Get, one AddObjectLocation when
// its birth lands, nothing at all if the copy is collected first, and one
// at its Put for a return stored after its birth landed.
func TestLocalReturnLocationBudget(t *testing.T) {
	reg, open := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	defer open()
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	n.TaskLedger().Flush() // announces the warm-up's results
	// The task ledger's flusher lands the gated task's birth, and then
	// blocks on its RUNNING delta; the driver's reference to its return
	// blocks the reference ledger's, so no reference held across a round
	// trip below is counted.
	probe.holdDeltaFlush(true)
	late, err := d.SubmitOpts("births.gated", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both flushers to block", func() bool { return probe.waiting.Load() == 2 })
	// Lookup's Spec is set while the birth is owed.
	if st, _ := n.TaskLedger().Lookup(late[0].Task); !st.Spec.ID.IsNil() {
		t.Fatal("the blocked flusher did not land the gated task's birth")
	}

	adds := probe.adds.Load()
	kept := runNoop(t, d)
	terminal(t, n, kept.Task)
	collected := runNoop(t, d)
	d.Release(collected)
	terminal(t, n, collected.Task)
	if got := probe.adds.Load() - adds; got != 0 {
		t.Fatalf("two warmed local round trips made %d AddObjectLocation calls, want 0", got)
	}
	open()
	terminal(t, n, late[0].Task)
	if got := probe.adds.Load() - adds; got != 1 || !locatedOn(probe.API, late[0].ID, n) {
		t.Fatalf("a return stored after its birth landed made %d AddObjectLocation calls (located %v), want 1",
			got, locatedOn(probe.API, late[0].ID, n))
	}
	probe.releaseFlush()
	n.TaskLedger().Flush()
	n.Lifetime().Tracker().Flush()
	if got := probe.adds.Load() - adds; got != 2 || !locatedOn(probe.API, kept.ID, n) {
		t.Fatalf("the flush made %d AddObjectLocation calls (located %v), want 1", got-1, locatedOn(probe.API, kept.ID, n))
	}
	if _, known := probe.API.GetObject(collected.ID); known || probe.removes.Load() != 0 || n.Store().Contains(collected.ID) {
		t.Fatalf("a result collected before its birth landed left a record (%v) or a copy (%v), or made %d RemoveObjectLocation calls",
			known, n.Store().Contains(collected.ID), probe.removes.Load())
	}
}

// TestReturnLocationRacesItsBirth drives both orders of a local return's
// Put and its task's birth landing. Either way the return is announced
// once, and its location is in the table before the FINISHED delta that
// wakes the table's watchers is sent: by the landing when the Put came
// first, and by the Put when the landing did.
func TestReturnLocationRacesItsBirth(t *testing.T) {
	run := func(t *testing.T, putFirst bool) {
		reg, open := birthFuncs(t)
		n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
		defer open()
		d := core.NewClient(n)
		runNoop(t, d)
		n.TaskLedger().Flush()
		var (
			mu      sync.Mutex
			ret     core.ObjectRef
			located = map[bool]int{}
		)
		probe.mu.Lock()
		probe.finished = func(task types.TaskID) {
			mu.Lock()
			defer mu.Unlock()
			if task == ret.Task {
				located[locatedOn(probe.API, ret.ID, n)]++
			}
		}
		probe.mu.Unlock()
		adds := probe.adds.Load()
		if putFirst {
			probe.holdFlush(false) // no birth lands
		}
		refs, err := d.SubmitOpts("births.gated", nil)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		ret = refs[0]
		mu.Unlock()
		if !putFirst {
			n.TaskLedger().LandBirths(refs[0].Task)
		}
		open()
		terminal(t, n, refs[0].Task)
		if got := probe.adds.Load() - adds; putFirst && got != 0 {
			t.Fatalf("a return stored while its birth was owed made %d AddObjectLocation calls, want 0", got)
		}
		probe.releaseFlush()
		landed(t, n, refs[0])
		mu.Lock()
		defer mu.Unlock()
		if a := probe.adds.Load() - adds; a != 1 || located[false] != 0 || located[true] == 0 {
			t.Fatalf("%d AddObjectLocation calls, FINISHED deltas sent with the return located %d times and not located %d times; want 1, >0 and 0",
				a, located[true], located[false])
		}
	}
	t.Run("put-first", func(t *testing.T) { run(t, true) })
	t.Run("landing-first", func(t *testing.T) { run(t, false) })
}

// TestEscapeOfAnArgumentStillRunning: a task spilled from the driver's node
// takes as argument the return of a task still running there. The spill
// lands the producer's birth, so that its Put publishes the location at
// once: it is in the table when its producer finishes, with the flushes'
// announcements held.
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
	ends, _ := a.TaskLedger().WaitEnds([]types.TaskID{arg.Ref.Task}, 0)
	if ends.C() == nil {
		t.Fatal("the running producer is not owned by the driver's node")
	}
	f.open()
	select {
	case <-ends.C():
	case <-ctx.Done():
		t.Fatal("the producer did not finish")
	}
	if !locatedOn(c.API, arg.Ref.ID, a) {
		t.Fatal("the escaped argument's location was not in the table when its producer finished")
	}
	if v, err := core.Get(ctx, d, out); err != nil || v != 2 {
		t.Fatalf("inc(gated(1)) = %d, %v", v, err)
	}
	if runs := f.runs.Load(); runs != 1 {
		t.Fatalf("the producer ran %d times, want 1", runs)
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

	// A flush tick that lands the producer's birth ahead of its Put has the
	// Put publish the return: that producer is not the one under test, and
	// another is made.
	var arg core.Ref[int]
	for i := 0; ; i++ {
		var err error
		if arg, err = f.local.Remote(d, 1); err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, arg); err != nil || v != 1 {
			t.Fatalf("local(1) = %d, %v", v, err)
		}
		if !locatedOn(c.API, arg.Ref.ID, a) {
			break
		}
		if i == 20 {
			t.Fatal("every local return was published before it escaped")
		}
	}
	runs := f.runs.Load()
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
	if again := f.runs.Load() - runs; again != 0 {
		t.Fatalf("the producer ran %d more times, want 0", again)
	}
}

// TestUnescapedReturnAnnouncedWithinTheBound: a held local return nothing
// escapes reaches the table in the first task-ledger flush that starts
// once its task's birth is older than types.BirthBound: it is never missing
// once the bound has passed since its submit and two flushes have
// completed since. Counted in flushes past the bound.
func TestUnescapedReturnAnnouncedWithinTheBound(t *testing.T) {
	f := newEscapeFuncs(t)
	c := singleNodeWith(t, f.reg)
	n, d, ctx := c.Node(0), c.Driver(), testCtx(t)
	for i := range 20 {
		born := time.Now()
		ref, err := f.local.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, ref); err != nil || v != i {
			t.Fatalf("local(%d) = %d, %v", i, v, err)
		}
		time.Sleep(time.Until(born.Add(types.BirthBound)))
		since := n.TaskLedger().Flushes()
		for {
			flushes := n.TaskLedger().Flushes() - since
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
	landed(t, n, ref.Ref) // FINISHED in the table
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
