package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// Record lifetime end to end (DESIGN.md §17): records go when nothing can
// ask for them again, stay while something can, and a reader that comes too
// late is told so. Every wait below is on a condition; where a test needs
// the grace to have passed it asks for the proposals as of an hour from now.

// lifeFuncs are the task bodies these tests run.
type lifeFuncs struct {
	reg   *core.Registry
	inc   core.Func1[int, int]
	pad   core.Func1[int, []byte] // n -> 128 KiB of byte(n): too big to be delivered to its origin
	first core.Func1[[]byte, int]
}

func newLifeFuncs() *lifeFuncs {
	f := &lifeFuncs{reg: core.NewRegistry()}
	f.inc = core.Register1(f.reg, "life.inc", func(tc *core.TaskContext, x int) (int, error) { return x + 1, nil })
	f.pad = core.Register1(f.reg, "life.pad", func(tc *core.TaskContext, n int) ([]byte, error) {
		out := make([]byte, 128<<10)
		for i := range out {
			out[i] = byte(n)
		}
		return out, nil
	})
	f.first = core.Register1(f.reg, "life.first", func(tc *core.TaskContext, b []byte) (int, error) { return int(b[0]), nil })
	return f
}

// retireNow proposes, on every node, everything it has queued — as if the
// grace had long passed.
func retireNow(c *Cluster) {
	for i := 0; i < c.NumNodes(); i++ {
		c.Node(i).Lifetime().RetireDue(time.Now().Add(time.Hour))
	}
}

// drained waits until no node holds a copy of any of ids.
func drained(t *testing.T, c *Cluster, ids ...types.ObjectID) {
	t.Helper()
	waitFor(t, 10*time.Second, "the released objects' copies to be collected", func() bool {
		for _, id := range ids {
			if info, ok := c.API.GetObject(id); ok && len(info.Locations) > 0 {
				return false
			}
		}
		return true
	})
}

// retired waits until the control plane holds no record of the tasks or
// of their first returns, proposing whatever is queued on the way.
func retired(t *testing.T, c *Cluster, what string, tasks ...types.TaskID) {
	t.Helper()
	waitFor(t, 10*time.Second, what, func() bool {
		retireNow(c)
		for _, id := range tasks {
			if _, ok := c.API.GetTask(id); ok {
				return false
			}
			if _, ok := c.API.GetObject(types.ObjectIDForReturn(id, 0)); ok {
				return false
			}
		}
		return true
	})
}

// TestHeldObjectKeepsItsProducerChain: T1 -> A, T2(A) -> B. With A released
// and B held, A's record, T1's and T2's survive every proposal — B's replay
// needs T2, T2's needs A, A's needs T1 — and B is replayed through them
// when its node dies. Once B is released too, the whole chain goes.
func TestHeldObjectKeepsItsProducerChain(t *testing.T) {
	f := newLifeFuncs()
	c, err := New(Config{
		Nodes:            3,
		PerNodeResources: []types.Resources{types.CPU(4), types.GPU(4, 1), types.GPU(4, 1)},
		Registry:         f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := testCtx(t)

	a, err := f.pad.Remote(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.first.RemoteRef(d, a, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Wait(ctx, []core.ObjectRef{b.Ref}, 1, -1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "T2 to be FINISHED in the table with its pin on A", func() bool {
		st, ok := c.API.GetTask(b.Ref.Task)
		info, _ := c.API.GetObject(a.Ref.ID)
		return ok && st.Status == types.TaskFinished && info.LineagePins == 1
	})

	d.Release(a.Ref)
	drained(t, c, a.Ref.ID)
	retireNow(c)
	retireNow(c) // and what a first proposal asked to see again
	for what, ok := range map[string]bool{
		"A's record":  has(c.API.GetObject(a.Ref.ID)),
		"T1's record": has(c.API.GetTask(a.Ref.Task)),
		"T2's record": has(c.API.GetTask(b.Ref.Task)),
		"B's record":  has(c.API.GetObject(b.Ref.ID)),
	} {
		if !ok {
			t.Fatalf("%s was retired while B is held", what)
		}
	}

	// B lives on the GPU node that ran T2 and, being small, on the driver's
	// node too; lose both copies.
	info, _ := c.API.GetObject(b.Ref.ID)
	for i := 1; i < c.NumNodes(); i++ {
		if info.HasLocation(c.Node(i).ID()) {
			c.KillNode(i)
		}
	}
	c.Node(0).Store().Delete(b.Ref.ID)
	if v, err := core.Get(ctx, d, b); err != nil || v != 7 {
		t.Fatalf("Get of B after its copies were lost = %d, %v; want 7 by replay through the kept chain", v, err)
	}

	d.Release(b.Ref)
	retired(t, c, "the released chain to be retired", a.Ref.Task, b.Ref.Task)
}

func has[V any](_ V, ok bool) bool { return ok }

// TestDataChainLeavesNoRecord: the data_chain shape — a Put, a remote task
// on it, both released — leaves none of its three records.
func TestDataChainLeavesNoRecord(t *testing.T) {
	f := newLifeFuncs()
	c, err := New(Config{Nodes: 2, PerNodeResources: []types.Resources{types.CPU(4), types.GPU(4, 1)}, Registry: f.reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	tasks0, objects0 := c.Ctrl.Records()

	in, err := d.Put(make([]byte, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.first.RemoteRef(d, core.Ref[[]byte]{Ref: in}, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(testCtx(t), d, out); err != nil || v != 0 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	d.Release(in, out.Ref)
	retired(t, c, "the task's and its return's records to be retired", out.Ref.Task)
	// The task's retire unpins the Put's record, and removes it in the same
	// call if it is dead by then. If a copy is still draining, or a borrow
	// release still unflushed, the proposal of its last deleter removes it a
	// pass later (DESIGN.md §17).
	waitFor(t, 10*time.Second, "the Put's record to follow the only task record that pinned it", func() bool {
		retireNow(c)
		_, ok := c.API.GetObject(in.ID)
		return !ok
	})
	if tasks, objects := c.Ctrl.Records(); tasks != tasks0 || objects != objects0 {
		t.Fatalf("%d task and %d object records left, %d and %d before the operation", tasks, objects, tasks0, objects0)
	}
}

// TestJobPurgeUnpinsWhatItsTasksTook: a job's task took an object of the
// driver's by reference. Purging the stopped job's records drops the pin;
// the object, still held, is untouched.
func TestJobPurgeUnpinsWhatItsTasksTook(t *testing.T) {
	f := newLifeFuncs()
	c, err := New(Config{Nodes: 1, Registry: f.reg, JobGrace: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	held, err := d.Put([]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	job, err := d.CreateJob("tenant", 1, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.first.RemoteRef(d, core.Ref[[]byte]{Ref: held}, job.Option())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(testCtx(t), d, out); err != nil || v != 9 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	waitFor(t, 10*time.Second, "the job's task to pin the driver's object", func() bool {
		info, _ := c.API.GetObject(held.ID)
		return info.LineagePins == 1
	})
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the job's records to be purged", func() bool {
		info, ok := c.API.GetJob(job.ID)
		return ok && info.PurgedNs != 0
	})
	if _, ok := c.API.GetTask(out.Ref.Task); ok {
		t.Fatal("the purged job's task record survived")
	}
	info, ok := c.API.GetObject(held.ID)
	if !ok || info.RefCount == 0 || info.LineagePins != 0 {
		t.Fatalf("the driver's object after the job purge: %+v (found %v), want it referenced and unpinned", info, ok)
	}
}

// TestLateReaderIsToldNotLeftWaiting: a Get or Wait on a released future
// whose records are gone returns ErrReclaimed once they have been absent
// for types.RetiredAfter, and a task submitted with it as an argument fails
// with it — whether its owner collected it at home, so that the tables
// never held it, or the tables held it and gcs.Retire retired it.
func TestLateReaderIsToldNotLeftWaiting(t *testing.T) {
	t.Run("home-collected", func(t *testing.T) {
		f := newLifeFuncs()
		c := singleNodeWith(t, f.reg)
		d := c.Driver()
		ref := collectedAtHome(t, f, c, d)
		lateReaderIsTold(t, f, d, ref)
	})
	t.Run("table-retired", func(t *testing.T) {
		f := newLifeFuncs()
		c := singleNodeWith(t, f.reg)
		n, d := c.Node(0), c.Driver()
		ref, err := f.inc.Remote(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(testCtx(t), d, ref); err != nil || v != 2 {
			t.Fatalf("Get = %d, %v", v, err)
		}
		// The task and the reference reach the tables before the release:
		// the table's path collects the result.
		n.TaskLedger().LandBirths(ref.Ref.Task)
		n.Lifetime().Tracker().Flush()
		d.Release(ref.Ref)
		retired(t, c, "the released task's records to be retired", ref.Ref.Task)
		lateReaderIsTold(t, f, d, ref)
	})
}

// collectedAtHome runs one life.inc task through d on node 0 and releases
// its result, which node 0 collects at home: the tables never hold it.
func collectedAtHome(t *testing.T, f *lifeFuncs, c *Cluster, d *core.Client) core.Ref[int] {
	t.Helper()
	n := c.Node(0)
	// Released before any flush, a result is collected at home unless a
	// flush caught its task still running and wrote its birth: then try
	// again.
	for attempt := 0; ; attempt++ {
		ref, err := f.inc.Remote(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(testCtx(t), d, ref); err != nil || v != 2 {
			t.Fatalf("Get = %d, %v", v, err)
		}
		home := homeTasks(n)
		d.Release(ref.Ref)
		n.TaskLedger().Flush()
		if homeTasks(n) > home {
			if _, ok := c.API.GetTask(ref.Ref.Task); ok {
				t.Fatal("a task collected at home is in the table")
			}
			return ref
		}
		if attempt == 10 {
			t.Fatal("no released result was collected at home in ten attempts")
		}
	}
}

// TestReleasedRefReadElsewhereWaitsOutTheBound: a ref its owner released
// and collected at home is absent from the tables, as a ref whose birth its
// owner has not landed yet is for up to types.BirthBound. A reader on
// another node cannot tell the two apart, so its Get and its Wait are told
// ErrReclaimed only after the bound, and then they are told.
func TestReleasedRefReadElsewhereWaitsOutTheBound(t *testing.T) {
	f := newLifeFuncs()
	c, err := New(Config{Nodes: 2, Registry: f.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	ref := collectedAtHome(t, f, c, c.Driver())
	other := c.DriverOn(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, read := range []struct {
		name string
		run  func() error
	}{
		{"Get", func() error { _, err := core.Get(ctx, other, ref); return err }},
		{"Wait", func() error { _, _, err := other.Wait(ctx, []core.ObjectRef{ref.Ref}, 1, -1); return err }},
	} {
		start := time.Now()
		err := read.run()
		if took := time.Since(start); !errors.Is(err, core.ErrReclaimed) || took <= types.BirthBound {
			t.Fatalf("%s on node 1 of a ref collected at home on node 0: %v after %v, want ErrReclaimed after more than %v",
				read.name, err, took, types.BirthBound)
		}
	}
}

// lateReaderIsTold checks that every late reader of the released ref is
// told ErrReclaimed, none left waiting.
func lateReaderIsTold(t *testing.T, f *lifeFuncs, d *core.Client, ref core.Ref[int]) {
	t.Helper()
	// A reader left waiting would be waiting for this context.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := core.Get(ctx, d, ref); !errors.Is(err, core.ErrReclaimed) {
		t.Fatalf("Get of a reclaimed future: %v, want ErrReclaimed", err)
	}
	if _, _, err := d.Wait(ctx, []core.ObjectRef{ref.Ref}, 1, -1); !errors.Is(err, core.ErrReclaimed) {
		t.Fatalf("Wait on a reclaimed future: %v, want ErrReclaimed", err)
	}
	late, err := f.inc.RemoteRef(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Get(ctx, d, late); !errors.Is(err, core.ErrReclaimed) || !errors.Is(err, core.ErrTaskFailed) {
		t.Fatalf("Get of a task submitted on a reclaimed argument: %v, want ErrTaskFailed and ErrReclaimed", err)
	}
	if ctx.Err() != nil {
		t.Fatal("a late reader was left waiting until its context ended")
	}
}

func singleNodeWith(t *testing.T, reg *core.Registry) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// TestGetRacingRetire: a Get that races the collection of a released
// object and the retiring of its records ends in the value — read, or
// replayed — or in ErrReclaimed, a thousand times out of a thousand. The
// retirer here proposes without the grace, so each round first waits for
// what the grace is there to wait for: the task FINISHED in the table and
// the lineage edge on its return's record.
func TestGetRacingRetire(t *testing.T) {
	f := newLifeFuncs()
	c := singleNodeWith(t, f.reg)
	d := c.Driver()
	ctx := testCtx(t)

	stop := make(chan struct{})
	var retirer sync.WaitGroup
	retirer.Add(1)
	go func() {
		defer retirer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				retireNow(c)
				runtime.Gosched()
			}
		}
	}()

	const workers, rounds = 8, 125
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := w*rounds + i
				ref, err := f.inc.Remote(d, x)
				if err != nil {
					t.Error(err)
					return
				}
				if v, err := core.Get(ctx, d, ref); err != nil || v != x+1 {
					t.Errorf("first Get = %d, %v", v, err)
					return
				}
				for settled := false; !settled; runtime.Gosched() {
					st, _ := c.API.GetTask(ref.Ref.Task)
					info, _ := c.API.GetObject(ref.Ref.ID)
					settled = st.Status == types.TaskFinished && info.Producer == ref.Ref.Task
				}
				d.Release(ref.Ref)
				if i%2 == 1 {
					// Every other round, start from a collected copy.
					for c.Node(0).Store().Contains(ref.Ref.ID) {
						runtime.Gosched()
					}
				}
				if v, err := core.Get(ctx, d, ref); err == nil && v != x+1 || err != nil && !errors.Is(err, core.ErrReclaimed) {
					t.Errorf("Get racing the retire = %d, %v; want %d or ErrReclaimed", v, err, x+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	retirer.Wait()
}
