package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// Collection at home (DESIGN.md §17): a task born on a node whose returns
// are all released there before anything about them left the node is
// collected by its owner, and neither it nor its returns ever reach the
// control plane. Each test below pins one condition of the rule; the
// observable is the node's lifetime.home.tasks counter, or the records.

// homeTasks reads n's count of tasks collected at home.
func homeTasks(n *node.Node) int64 { return n.Metrics().Counter("lifetime.home.tasks").Value() }

// afterFlushes waits until k task-ledger flushes have completed on n since
// the call.
func afterFlushes(t *testing.T, n *node.Node, k uint64) {
	t.Helper()
	since := n.TaskLedger().Flushes()
	waitFor(t, 10*time.Second, "task-ledger flushes", func() bool { return n.TaskLedger().Flushes()-since >= k })
}

// birthsLanded waits until types.BirthBound has passed since born, then for
// two task-ledger flushes on each of nodes: the second started once the
// first ended, older than the bound, so every birth adopted before born has
// landed, or a shard refused it.
func birthsLanded(t *testing.T, born time.Time, nodes ...*node.Node) {
	t.Helper()
	time.Sleep(time.Until(born.Add(types.BirthBound)))
	for _, n := range nodes {
		afterFlushes(t, n, 2)
	}
}

// TestLocalRoundTripControlPlaneBudget pins what a released local result
// costs the control plane: nothing. Both flushers are held — the task
// ledger's where a flush has written its births and announced, the
// reference ledger's in a send — so that the 100 round trips all fall
// between two flushes of each: no reference is counted while it is held,
// and the task ledger's next flush decides every task's fate. The
// reference flush made once the flushers go on sends every touch it does
// not hold back.
func TestLocalRoundTripControlPlaneBudget(t *testing.T) {
	reg, open := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	defer open()
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	n.TaskLedger().Flush() // announces the warm-up's results
	probe.holdDeltaFlush(true)
	// The gated task's deltas and its held reference block the flushers.
	if _, err := d.SubmitOpts("births.gated", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both flushers to block", func() bool { return probe.waiting.Load() == 2 })

	home := homeTasks(n)
	events, retires, adds, removes := probe.events.Load(), probe.retires.Load(), probe.adds.Load(), probe.removes.Load()
	var tasks []types.TaskID
	var objects []types.ObjectID
	for range 100 {
		// A fresh birth of a task without a job waits for the flush whether
		// the task starts, spills or waits for a CPU, so the birth rule does
		// not need this wait. It keeps every round trip on the one path this
		// test counts: the task starts at once, on a free CPU with nothing
		// queued ahead of it.
		waitFor(t, 10*time.Second, "a free CPU", func() bool {
			_, avail, _, _ := n.Scheduler().Accounting()
			return types.CPU(1).Fits(avail) && n.Scheduler().QueueLen() == 0
		})
		ref := runNoop(t, d)
		d.Release(ref)
		tasks, objects = append(tasks, ref.Task), append(objects, ref.ID)
	}
	// A Get may return at the Put, just before the FINISHED stamp: the flush
	// that goes on must find every task terminal. A task the next round
	// trip's Birth collected at home has left the ledger already.
	waitFor(t, 10*time.Second, "every task to be terminal", func() bool {
		for _, id := range tasks {
			if st, owned := n.TaskLedger().Lookup(id); owned && !st.Status.Terminal() {
				return false
			}
		}
		return true
	})
	probe.releaseFlush()
	afterFlushes(t, n, 2)
	n.Lifetime().Tracker().Flush() // sends whatever the collection left

	if te, oe := probe.flushed(tasks, objects); te != 0 || oe != 0 {
		t.Fatalf("the round trips cost %d ModifyTaskStates and %d ModifyObjectRefCounts entries, want 0 and 0", te, oe)
	}
	if a, r := probe.adds.Load()-adds, probe.removes.Load()-removes; a != 0 || r != 0 {
		t.Fatalf("the round trips cost %d AddObjectLocation and %d RemoveObjectLocation calls, want 0 and 0", a, r)
	}
	if rt, ev := probe.retires.Load()-retires, probe.events.Load()-events; rt != 0 || ev != 0 {
		t.Fatalf("the round trips cost %d Retire and %d LogEvent calls, want 0 and 0", rt, ev)
	}
	held, unflushed := n.Lifetime().Tracker().HeldAll(), n.Lifetime().Tracker().Unflushed()
	for i, id := range objects {
		_, h := held[id]
		_, u := unflushed[id]
		if n.Store().Contains(id) || h || u || n.TaskLedger().Owns(tasks[i]) {
			t.Fatalf("round trip %d left state behind: copy %v, held %v, unflushed %v, ledger %v",
				i, n.Store().Contains(id), h, u, n.TaskLedger().Owns(tasks[i]))
		}
	}
	if got := homeTasks(n) - home; got != 100 {
		t.Fatalf("lifetime.home.tasks moved by %d, want 100", got)
	}
}

// TestSerialRoundTripsCollectedAtBirthBudget pins collection at Birth: a
// serial stream of released round trips, each ended before the next
// submit, is collected one task at a time by the next Birth, with both
// flushers held so that no flush walks the owed births. The ledger never
// owes more than the one birth of the round trip in hand, and none of the
// tasks or their results reaches the control plane.
func TestSerialRoundTripsCollectedAtBirthBudget(t *testing.T) {
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

	owed := func() int64 { return n.Metrics().Snapshot().Gauges["lifetime.births.owed"] }
	home := homeTasks(n)
	var tasks []types.TaskID
	var objects []types.ObjectID
	for i := range 100 {
		ref := runNoop(t, d)
		d.Release(ref)
		tasks, objects = append(tasks, ref.Task), append(objects, ref.ID)
		waitFor(t, 10*time.Second, "the task to be terminal", func() bool {
			st, _ := n.TaskLedger().Lookup(ref.Task)
			return st.Status.Terminal()
		})
		if o := owed(); o > 1 {
			t.Fatalf("round trip %d: lifetime.births.owed reads %d, want at most 1", i, o)
		}
	}
	if got := homeTasks(n) - home; got != 99 {
		t.Fatalf("lifetime.home.tasks moved by %d with the flushers held, want 99", got)
	}
	probe.releaseFlush()
	afterFlushes(t, n, 2)
	n.Lifetime().Tracker().Flush()
	if te, oe := probe.flushed(tasks, objects); te != 0 || oe != 0 {
		t.Fatalf("the round trips cost %d ModifyTaskStates and %d ModifyObjectRefCounts entries, want 0 and 0", te, oe)
	}
}

// TestLocalRoundTripHeldAcrossTicksBudget: a local result held across two
// ticks of its node's task ledger, and released then, still costs the
// control plane nothing. The flushers run at their own cadence; a timed
// flush leaves a birth younger than types.BirthBound at home, and the
// deltas on its return with it, so the release finds the task where the
// round trip left it. A round slower than half the bound proves nothing and
// is made again.
func TestLocalRoundTripHeldAcrossTicksBudget(t *testing.T) {
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	n.TaskLedger().Flush()

	home := homeTasks(n)
	events, retires, adds, removes := probe.events.Load(), probe.retires.Load(), probe.adds.Load(), probe.removes.Load()
	var tasks []types.TaskID
	var objects []types.ObjectID
	slow := 0
	for len(tasks) < 50 {
		if slow == 50 {
			t.Fatalf("%d rounds took longer than half the bound to hold their result across two ticks", slow)
		}
		start := time.Now()
		ref := runNoop(t, d)
		afterFlushes(t, n, 2)
		d.Release(ref)
		if time.Since(start) < types.BirthBound/2 {
			tasks, objects = append(tasks, ref.Task), append(objects, ref.ID)
		} else {
			slow++
		}
	}
	birthsLanded(t, time.Now(), n)

	if te, oe := probe.flushed(tasks, objects); te != 0 || oe != 0 {
		t.Fatalf("the held round trips cost %d ModifyTaskStates and %d ModifyObjectRefCounts entries, want 0 and 0", te, oe)
	}
	for i, id := range objects {
		if n.Store().Contains(id) || n.TaskLedger().Owns(tasks[i]) {
			t.Fatalf("round trip %d left state behind: copy %v, ledger %v", i, n.Store().Contains(id), n.TaskLedger().Owns(tasks[i]))
		}
	}
	if got := homeTasks(n) - home; got < int64(len(tasks)) {
		t.Fatalf("lifetime.home.tasks moved by %d, want at least %d", got, len(tasks))
	}
	if slow > 0 {
		return // a slow round's birth may have landed: the calls below count it
	}
	if a, r := probe.adds.Load()-adds, probe.removes.Load()-removes; a != 0 || r != 0 {
		t.Fatalf("the held round trips cost %d AddObjectLocation and %d RemoveObjectLocation calls, want 0 and 0", a, r)
	}
	if rt, ev := probe.retires.Load()-retires, probe.events.Load()-events; rt != 0 || ev != 0 {
		t.Fatalf("the held round trips cost %d Retire and %d LogEvent calls, want 0 and 0", rt, ev)
	}
}

// TestWindowIsCollectedAtHome: windows of 200 no-ops over four nodes, each
// waited for and released whole, as the benchmark's noop_window runs them.
// A window ends well inside types.BirthBound, and a timed flush leaves
// younger births at home, so at least 0.9 of the tasks are collected at
// home and never reach the control plane.
func TestWindowIsCollectedAtHome(t *testing.T) {
	const window, windows = 200, 10
	reg, _ := birthFuncs(t)
	c, err := New(Config{Nodes: 4, NodeResources: types.CPU(4), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d, ctx := c.Driver(), testCtx(t)
	var nodes []*node.Node
	for i := range c.NumNodes() {
		nodes = append(nodes, c.Node(i))
	}
	collected := func() (sum int64) {
		for _, n := range nodes {
			sum += homeTasks(n)
		}
		return sum
	}
	before := collected()
	call := core.Call{Function: "births.noop", Resources: types.CPU(0.0001)}
	refs := make([]core.ObjectRef, window)
	for range windows {
		for i := range refs {
			if refs[i], err = d.Submit1(call); err != nil {
				t.Fatal(err)
			}
		}
		ready, _, err := d.Wait(ctx, refs, window, -1)
		if err != nil || len(ready) != window {
			t.Fatalf("Wait: %d ready, %v", len(ready), err)
		}
		d.Release(refs...)
	}
	birthsLanded(t, time.Now(), nodes...)
	if got, want := collected()-before, int64(0.9*window*windows); got < want {
		t.Fatalf("lifetime.home.tasks moved by %d over %d tasks, want at least %d", got, window*windows, want)
	}
}

// TestHeldReturnIsNotCollected: a return the driver holds keeps its task,
// whose birth lands in the first flush that starts once it is older than
// types.BirthBound.
func TestHeldReturnIsNotCollected(t *testing.T) {
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	home := homeTasks(n)
	born := time.Now()
	ref := runNoop(t, d)
	birthsLanded(t, born, n)
	if st, ok := probe.API.GetTask(ref.Task); !ok || st.Spec.ID != ref.Task {
		t.Fatalf("the held return's task is not in the table once its birth is older than the bound: %+v, %v", st, ok)
	}
	if got := homeTasks(n) - home; got != 0 {
		t.Fatalf("%d tasks collected at home, want 0", got)
	}
}

// TestTakenReturnIsNotCollected: a released return that a task admitted
// here took as its argument keeps its producer, whatever its count nets to:
// the consumer's birth pins it as lineage, and the producer's record is
// what that lineage leads to. The argument is here before its consumer is
// submitted, so the consumer starts at once and its birth waits for the
// flush: nothing but the consumer's borrow flush, which counts the
// argument in the table, keeps the producer from being collected.
func TestTakenReturnIsNotCollected(t *testing.T) {
	f := newLifeFuncs()
	c := singleNodeWith(t, f.reg)
	n, d, ctx := c.Node(0), c.Driver(), testCtx(t)
	home := homeTasks(n)
	var chains [][2]core.Ref[int]
	for i := range 20 {
		a, err := f.inc.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, a); err != nil || v != i+1 {
			t.Fatalf("inc(%d) = %d, %v", i, v, err)
		}
		b, err := f.inc.RemoteRef(d, a)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, b); err != nil || v != i+2 {
			t.Fatalf("inc(inc(%d)) = %d, %v", i, v, err)
		}
		d.Release(a.Ref)
		chains = append(chains, [2]core.Ref[int]{a, b})
	}
	afterFlushes(t, n, 2)
	if got := homeTasks(n) - home; got != 0 {
		t.Fatalf("%d tasks collected at home, want 0: every producer's return was taken", got)
	}
	for i, ch := range chains {
		n.TaskLedger().LandBirths(ch[0].Ref.Task, ch[1].Ref.Task)
		if info, ok := c.API.GetObject(ch[0].Ref.ID); !ok || info.Producer != ch[0].Ref.Task {
			t.Fatalf("chain %d: the taken argument's record lost its producer: %+v, %v", i, info, ok)
		}
	}
}

// TestEscapedReturnsAreNotCollected: a return that left its node — as a
// spilled task's argument, pushed to a peer by a drain, or written to the
// disk tier — is not collected at home once released.
func TestEscapedReturnsAreNotCollected(t *testing.T) {
	t.Run("spill-bridge", func(t *testing.T) {
		f := newEscapeFuncs(t)
		c := escapeCluster(t, f)
		a, d, ctx := c.Node(0), c.Driver(), testCtx(t)
		home := homeTasks(a)
		for i := range 10 {
			arg, err := f.local.Remote(d, i)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := core.Get(ctx, d, arg); err != nil || v != i {
				t.Fatalf("local(%d) = %d, %v", i, v, err)
			}
			out, err := f.inc.RemoteRef(d, arg, onGPU)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := core.Get(ctx, d, out); err != nil || v != i+1 {
				t.Fatalf("inc(local(%d)) = %d, %v", i, v, err)
			}
			d.Release(arg.Ref, out.Ref)
		}
		afterFlushes(t, a, 2)
		if got := homeTasks(a) - home; got != 0 {
			t.Fatalf("%d escaped tasks collected at home, want 0", got)
		}
	})
	t.Run("drain", func(t *testing.T) {
		reg, blob := drainRegistry()
		c, err := New(Config{Nodes: 2, NodeResources: types.CPU(4), Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		victim := c.Node(1)
		d, ctx := core.NewClient(victim), testCtx(t)
		home := homeTasks(victim)
		var refs []core.Ref[[]byte]
		for i := range 4 {
			ref, err := blob.Remote(d, i+1, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Get(ctx, d, ref); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
		if !c.DrainNode(1) {
			t.Fatal("drain CAS lost")
		}
		waitFor(t, 30*time.Second, "the drained node's copies to migrate", func() bool {
			for _, r := range refs {
				if victim.Store().Contains(r.Ref.ID) {
					return false
				}
			}
			return true
		})
		for _, r := range refs {
			d.Release(r.Ref)
		}
		victim.TaskLedger().Flush()
		victim.TaskLedger().Flush()
		if got := homeTasks(victim) - home; got != 0 {
			t.Fatalf("%d migrated tasks collected at home, want 0", got)
		}
	})
	t.Run("disk", func(t *testing.T) {
		f := newLifeFuncs()
		c, err := New(Config{Nodes: 1, Registry: f.reg, StoreCapacity: 200 << 10, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		n, d, ctx := c.Node(0), c.Driver(), testCtx(t)
		home := homeTasks(n)
		first, err := f.pad.Remote(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Get(ctx, d, first); err != nil {
			t.Fatal(err)
		}
		second, err := f.pad.Remote(d, 2) // evicts first: it is referenced, so it spills
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Get(ctx, d, second); err != nil {
			t.Fatal(err)
		}
		if n.Store().Stats().Spills == 0 {
			t.Fatal("nothing spilled to disk")
		}
		d.Release(first.Ref)
		afterFlushes(t, n, 2)
		if got := homeTasks(n) - home; got != 0 {
			t.Fatalf("%d spilled tasks collected at home, want 0", got)
		}
	})
}

// TestHeldAcrossATrackerFlushTakesTheTablePath: a reference counted in the
// table before its release makes its return the table's to collect: the
// copy is drained, and once the proposals are made no record of the task or
// its return remains.
func TestHeldAcrossATrackerFlushTakesTheTablePath(t *testing.T) {
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	home := homeTasks(n)
	ref := runNoop(t, d)
	n.Lifetime().Tracker().Flush()
	d.Release(ref)
	noRecords(t, n, probe.API, ref)
	if n.Store().Contains(ref.ID) || homeTasks(n) != home {
		t.Fatalf("copy left %v, %d tasks collected at home; want none of either",
			n.Store().Contains(ref.ID), homeTasks(n)-home)
	}
}

// TestReleasedWhileRunning: a return released while its task still runs
// ends with no copy and no record, whether its owner collected it at home
// or the table retired it. Its touch reaches the table while the copy is
// not here yet, so the task's return is known to the table when it lands:
// the owner may collect only what the table never heard of. Which way a
// round goes depends on whether a flush caught the task running, so there
// are several.
func TestReleasedWhileRunning(t *testing.T) {
	reg := core.NewRegistry()
	step := make(chan struct{})
	reg.Register("home.stepped", func(*core.TaskContext, [][]byte) ([][]byte, error) {
		<-step
		return [][]byte{nil}, nil
	})
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	for round := range 5 {
		refs, err := d.SubmitOpts("home.stepped", nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Release(refs[0])
		n.Lifetime().Tracker().Flush()
		step <- struct{}{}
		waitFor(t, 10*time.Second, "the task to end", func() bool { return n.Executor().Executed() > int64(round) })
		waitFor(t, 10*time.Second, "the copy to go", func() bool { return !n.Store().Contains(refs[0].ID) })
		noRecords(t, n, probe.API, refs[0])
	}
}

// TestTaskWithOneHeldReturnIsNotCollected: a task is collected whole or not
// at all — one held return keeps it, and the released one takes the
// table's path.
func TestTaskWithOneHeldReturnIsNotCollected(t *testing.T) {
	reg := core.NewRegistry()
	reg.Register("home.two", func(*core.TaskContext, [][]byte) ([][]byte, error) { return [][]byte{nil, nil}, nil })
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d, ctx := core.NewClient(n), testCtx(t)
	home := homeTasks(n)
	born := time.Now()
	refs, err := d.SubmitOpts("home.two", nil, core.WithNumReturns(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if _, err := d.Get(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	d.Release(refs[1])
	birthsLanded(t, born, n)
	if got := homeTasks(n) - home; got != 0 {
		t.Fatalf("%d tasks collected at home, want 0", got)
	}
	if _, ok := probe.API.GetTask(refs[0].Task); !ok {
		t.Fatal("the task's birth did not land")
	}
	waitFor(t, 10*time.Second, "the released return's copy to be drained", func() bool { return !n.Store().Contains(refs[1].ID) })
	if !n.Store().Contains(refs[0].ID) {
		t.Fatal("the held return's copy is gone")
	}
}

// TestHomeCollectionRace runs local round trips on 8 goroutines with the
// flushers at their real cadence, releasing about half of the results and
// holding the rest. Afterwards the books balance: every reference is
// conserved, no object record is left with neither a producer nor bytes,
// and every task whose return is held is FINISHED in the table.
func TestHomeCollectionRace(t *testing.T) {
	const workers, rounds = 8, 40
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	var mu sync.Mutex
	var held []types.TaskID
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for range rounds {
				refs, err := d.SubmitOpts("births.noop", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := d.Get(ctx, refs[0]); err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					d.Release(refs[0])
					continue
				}
				mu.Lock()
				held = append(held, refs[0].Task)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	check := chaostest.New(probe.API)
	check.AwaitRefConservation(t, 10*time.Second, map[string]chaostest.Ledger{"n": n.Lifetime().Tracker()})
	waitFor(t, 10*time.Second, "no object record with neither a producer nor bytes", func() bool {
		n.Lifetime().RetireDue(time.Now().Add(time.Hour))
		for _, o := range probe.API.Objects() {
			if o.Producer.IsNil() && len(o.Locations) == 0 && len(o.SpilledOn) == 0 {
				return false
			}
		}
		return true
	})
	check.AwaitTaskConservation(t, 10*time.Second, held)
}
