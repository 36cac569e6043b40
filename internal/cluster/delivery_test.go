package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/node"
	"repro/internal/profile"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// Result delivery (DESIGN.md §6.3): a node that finishes a task submitted
// through another node sends a small return value straight to that node's
// store. These tests pin the message budget it is there to change, and the
// failure and race matrix it must not change anything in.

// deliveryFuncs are tasks that only a GPU node can run, so a driver on the
// CPU-only node 0 always gets them executed elsewhere.
type deliveryFuncs struct {
	reg   *core.Registry
	small core.Func1[int, int]    // returns -arg
	big   core.Func1[int, []byte] // returns arg bytes
	boom  core.Func1[int, int]    // always fails
	gated core.Func1[int, int]    // signals entered, waits for gate, returns -arg
	local core.Func1[int, int]    // CPU only: runs on the driver's node

	entered chan struct{}
	gate    chan struct{}
}

var onGPU = core.WithResources(types.GPU(1, 1))

func newDeliveryFuncs() *deliveryFuncs {
	f := &deliveryFuncs{reg: core.NewRegistry(), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	f.small = core.Register1(f.reg, "small", func(tc *core.TaskContext, x int) (int, error) { return -x, nil })
	f.big = core.Register1(f.reg, "big", func(tc *core.TaskContext, n int) ([]byte, error) { return make([]byte, n), nil })
	f.boom = core.Register1(f.reg, "boom", func(tc *core.TaskContext, x int) (int, error) { return 0, errors.New("boom") })
	f.gated = core.Register1(f.reg, "gated", func(tc *core.TaskContext, x int) (int, error) {
		f.entered <- struct{}{}
		<-f.gate
		return -x, nil
	})
	f.local = core.Register1(f.reg, "local", func(tc *core.TaskContext, x int) (int, error) { return x, nil })
	return f
}

// deliveryCluster boots node 0 without a GPU (the driver's node, every
// task's origin) and the nodes after it per gpu, over a zero-latency
// network: every count below is exact, none depends on timing.
func deliveryCluster(t *testing.T, f *deliveryFuncs, storeCapacity int64, gpu ...bool) *Cluster {
	t.Helper()
	res := []types.Resources{types.CPU(4)}
	for _, g := range gpu {
		if g {
			res = append(res, types.GPU(4, 1))
		} else {
			res = append(res, types.CPU(4))
		}
	}
	c, err := New(Config{Nodes: len(res), PerNodeResources: res, Registry: f.reg, StoreCapacity: storeCapacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// traffic is the cluster-wide sum of the counters a delivery moves.
type traffic struct {
	messages, pulledObjects, pulledChunks, pushSent, pushReceived, pushFailed, executed int64
}

func trafficOf(c *Cluster) (tr traffic) {
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		counters := n.Metrics().Snapshot().Counters
		tr.messages += counters["transport.messages"]
		tr.pushSent += counters["objectstore.push.sent"]
		tr.pushReceived += counters["objectstore.push.received"]
		tr.pushFailed += counters["objectstore.push.failed"]
		objects, chunks, _ := n.Puller().Stats()
		tr.pulledObjects += objects
		tr.pulledChunks += chunks
		tr.executed += n.Executor().Executed() + n.Executor().Failed()
	}
	return tr
}

func (a traffic) minus(b traffic) traffic {
	return traffic{a.messages - b.messages, a.pulledObjects - b.pulledObjects, a.pulledChunks - b.pulledChunks,
		a.pushSent - b.pushSent, a.pushReceived - b.pushReceived, a.pushFailed - b.pushFailed, a.executed - b.executed}
}

// settled waits until n more tasks have run to their terminal stamp than at
// base (a result is gettable before its executor finishes the bookkeeping
// behind it) and returns the traffic since.
func settled(t *testing.T, c *Cluster, base traffic, n int64) traffic {
	t.Helper()
	waitFor(t, 10*time.Second, "the executing node to finish the task", func() bool {
		return trafficOf(c).executed-base.executed == n
	})
	return trafficOf(c).minus(base)
}

// awaitTraffic waits until the traffic since base is exactly want. The
// counters only grow, so a message or pull too many never comes back to
// want and fails here with what was seen.
func awaitTraffic(t *testing.T, c *Cluster, base, want traffic, what string) {
	t.Helper()
	var got traffic
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if got = trafficOf(c).minus(base); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %+v, want %+v", what, got, want)
		}
	}
}

// getCountingCtrl counts the two control-plane calls a blocking Get makes
// when it has to go through the resolver.
type getCountingCtrl struct {
	gcs.API
	subscribes, reads atomic.Int64
}

func (c *getCountingCtrl) Subscribe(topic gcs.Topic, id [types.IDSize]byte) gcs.Sub {
	if topic == gcs.TopicObjectReady {
		c.subscribes.Add(1)
	}
	return c.API.Subscribe(topic, id)
}

func (c *getCountingCtrl) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	c.reads.Add(1)
	return c.API.GetObject(id)
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestMessageBudget is the tier-1 guard on node-to-node traffic per task
// (ROADMAP item 1: fail on RPC-count regressions). Exact counts, no timing.
func TestMessageBudget(t *testing.T) {
	f := newDeliveryFuncs()
	c := deliveryCluster(t, f, 0, true)
	d, ctx := c.Driver(), testCtx(t)

	// A local task: nothing crosses the network.
	base := trafficOf(c)
	ref, err := f.local.Remote(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, ref); err != nil || v != 7 {
		t.Fatalf("local(7) = %d, %v", v, err)
	}
	awaitTraffic(t, c, base, traffic{executed: 1}, "local task")

	// A remote task with a small result: the assignment out, the result
	// back with the completion. No pull.
	base = trafficOf(c)
	ref, err = f.small.Remote(d, 7, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, ref); err != nil || v != -7 {
		t.Fatalf("small(7) = %d, %v", v, err)
	}
	awaitTraffic(t, c, base, traffic{messages: 2, pushSent: 1, pushReceived: 1, executed: 1}, "remote task, small result")

	// A remote task with a 1 MiB result, over the delivery limit: the
	// assignment, then the chunked pull exactly as before delivery existed
	// (1 MiB plus its encoding header is 5 chunks of 256 KiB).
	base = trafficOf(c)
	blob, err := f.big.Remote(d, 1<<20, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, blob); err != nil || len(v) != 1<<20 {
		t.Fatalf("big(1 MiB) = %d bytes, %v", len(v), err)
	}
	awaitTraffic(t, c, base, traffic{messages: 6, pulledObjects: 1, pulledChunks: 5, executed: 1}, "remote task, 1 MiB result")

	// A local task does not touch the control plane to wait for its result
	// either: a Get of a task the driver's own node owns opens no readiness
	// subscription and reads no object record (DESIGN.md §13). The
	// reconstructor's first act is such a read, so it was not called.
	// Counted on one more node, joined through a counting view of the same
	// control plane.
	counted := &getCountingCtrl{API: c.API}
	extra, err := node.New(node.Config{
		Resources: types.CPU(4), Network: c.Network, ListenAddr: "node-counted", Ctrl: counted,
		Registry: f.reg, SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(extra.Shutdown)
	de := core.NewClient(extra)
	ref, err = f.local.Remote(de, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, de, ref); err != nil || v != 8 {
		t.Fatalf("local(8) on the counted node = %d, %v", v, err)
	}
	if subs, reads := counted.subscribes.Load(), counted.reads.Load(); subs != 0 || reads != 0 {
		t.Fatalf("a local submit and Get made %d object-ready subscriptions and %d GetObject calls, want none", subs, reads)
	}
}

// TestRemoteRefArgumentParksOnce: a data_chain-shaped operation — a 1 MiB
// put on the driver's node, a task on the GPU node that takes it by
// reference — parks that task once in the executing node's waiting set, and
// scheduler.tasks.parked counts it: the argument is missing at admission,
// since the row's resolver is the only thing that fetches it.
func TestRemoteRefArgumentParksOnce(t *testing.T) {
	f := newDeliveryFuncs()
	size := core.Register1(f.reg, "size", func(tc *core.TaskContext, b []byte) (int, error) { return len(b), nil })
	c, err := New(Config{Nodes: 2, PerNodeResources: []types.Resources{types.CPU(4), types.GPU(4, 1)},
		Registry: f.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d, ctx := c.Driver(), testCtx(t)
	parked := func() (n int64) {
		for i := 0; i < c.NumNodes(); i++ {
			n += c.Node(i).Metrics().Snapshot().Counters["scheduler.tasks.parked"]
		}
		return n
	}
	in, err := core.PutTyped(d, make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	out, err := size.RemoteRef(d, in, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := core.Get(ctx, d, out); err != nil || v != 1<<20 {
		t.Fatalf("size(1 MiB) = %d, %v", v, err)
	}
	if got, onGPUNode := parked(), c.Node(1).Metrics().Snapshot().Counters["scheduler.tasks.parked"]; got != 1 || onGPUNode != 1 {
		t.Fatalf("scheduler.tasks.parked = %d (%d on the GPU node), want 1 there", got, onGPUNode)
	}
}

// TestDeliverySpanJoinsTheTaskTrace: the producer's push span carries the
// task, object and trace IDs, so the profiler lists the delivery among the
// task's own spans.
func TestDeliverySpanJoinsTheTaskTrace(t *testing.T) {
	f := newDeliveryFuncs()
	c := deliveryCluster(t, f, 0, true)
	d := c.Driver()
	ref, err := f.small.Remote(d, 3, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Get(testCtx(t), d, ref); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the push span to be harvested into the task's trace", func() bool {
		for _, sp := range profile.BuildFull(c.API).Data {
			if sp.Name == "objectstore.push" {
				return sp.Cat == "push" && sp.Task == ref.Ref.Task.Hex() && sp.Object == ref.Ref.ID.Hex() &&
					sp.Trace != 0 && sp.Node == c.Node(1).ID().Hex()
			}
		}
		return false
	})
}

// TestFailedTaskSurfacesAtOriginWithoutPull: the error payload of a remote
// task's terminal failure is delivered like a result.
func TestFailedTaskSurfacesAtOriginWithoutPull(t *testing.T) {
	f := newDeliveryFuncs()
	c := deliveryCluster(t, f, 0, true)
	d := c.Driver()
	base := trafficOf(c)
	ref, err := f.boom.Remote(d, 1, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Get(testCtx(t), d, ref); !errors.Is(err, core.ErrTaskFailed) {
		t.Fatalf("Get of a failed remote task: %v, want ErrTaskFailed", err)
	}
	// (A failing task is counted before its error payloads are stored, so
	// the execution count alone does not mean the delivery is over.)
	awaitTraffic(t, c, base, traffic{messages: 2, pushSent: 1, pushReceived: 1, executed: 1}, "failed remote task")
}

// TestDeliveryFallsBackToPull: whatever is wrong with the origin when the
// task finishes, the task completes once, its result is on the producer,
// and anyone can still pull it from there.
func TestDeliveryFallsBackToPull(t *testing.T) {
	const capacity = 1 << 10
	for name, sabotage := range map[string]func(c *Cluster){
		"origin killed":   func(c *Cluster) { c.KillNode(0) },
		"origin draining": func(c *Cluster) { c.Node(0).Scheduler().SetDraining(true) },
		"origin store full": func(c *Cluster) {
			// One pinned object of the whole capacity: nothing can be evicted
			// to make room for a delivered copy.
			id := types.PutObjectID(types.NilTaskID, 1)
			if err := c.Node(0).PutObject(id, make([]byte, capacity)); err != nil {
				panic(err)
			}
			c.Node(0).Store().Pin(id)
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := newDeliveryFuncs()
			c := deliveryCluster(t, f, capacity, true, false)
			d0, d2, ctx := c.Driver(), c.DriverOn(2), testCtx(t)

			// One healthy round first: the producer now holds a connection to
			// the origin and its address, so what follows goes through the
			// caches, not around them.
			warm, err := f.small.Remote(d0, 1, onGPU)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Get(ctx, d0, warm); err != nil {
				t.Fatal(err)
			}
			d0.Release(warm.Ref)
			base := settled(t, c, traffic{}, 1)
			if base.pushSent != 1 {
				t.Fatalf("warm-up: %+v, want one delivery", base)
			}

			ref, err := f.gated.Remote(d0, 21, onGPU)
			if err != nil {
				t.Fatal(err)
			}
			<-f.entered
			// The third party's reference keeps the result alive when the
			// origin's references die with it.
			c.Node(2).RetainObject(ref.Ref.ID)
			c.Node(2).Lifetime().Tracker().Flush()
			sabotage(c)
			close(f.gate)

			if v, err := core.Get(ctx, d2, ref); err != nil || v != -21 {
				t.Fatalf("third-party Get = %d, %v", v, err)
			}
			got := settled(t, c, base, 1)
			if got.pushFailed != 1 || got.pushSent != 0 || got.pushReceived != 0 {
				t.Fatalf("traffic after %s: %+v, want one failed delivery and none received", name, got)
			}
			if !c.Node(1).Store().Contains(ref.Ref.ID) {
				t.Fatal("the producer does not hold the result")
			}
			waitFor(t, 5*time.Second, "the task record to show FINISHED", func() bool {
				st, ok := c.API.GetTask(ref.Ref.Task)
				return ok && st.Status == types.TaskFinished
			})
			chaostest.New(c.API).AwaitTaskConservation(t, 10*time.Second, []types.TaskID{warm.Ref.Task, ref.Ref.Task})
			c.Node(0).Scheduler().SetDraining(false)
		})
	}
}

// TestDeliveredCopySurvivesProducerDeath: the executing node dies right
// after completing; the origin's Get is served by the delivered copy, and
// nothing is replayed. (Without delivery the only copy died with the
// producer, and the Get paid a lineage replay on the other GPU node.)
func TestDeliveredCopySurvivesProducerDeath(t *testing.T) {
	f := newDeliveryFuncs()
	c := deliveryCluster(t, f, 0, true, true)
	d := c.Driver()
	ref, err := f.small.Remote(d, 5, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	producer := -1
	waitFor(t, 10*time.Second, "the task to be recorded FINISHED and its result delivered", func() bool {
		st, ok := c.API.GetTask(ref.Ref.Task)
		if !ok || st.Status != types.TaskFinished || !c.Node(0).Store().Contains(ref.Ref.ID) {
			return false
		}
		for i := 1; i < c.NumNodes(); i++ {
			if c.Node(i).ID() == st.Node {
				producer = i
			}
		}
		return producer > 0
	})
	c.KillNode(producer)
	if v, err := core.Get(testCtx(t), d, ref); err != nil || v != -5 {
		t.Fatalf("Get after the producer died = %d, %v", v, err)
	}
	if info, ok := c.API.GetObject(ref.Ref.ID); !ok || info.State != types.ObjectReady {
		t.Fatalf("object record after the producer died: %+v", info)
	}
	if got := trafficOf(c); got.executed != 1 || got.pulledObjects != 0 {
		t.Fatalf("%+v, want one execution in all and no pull", got)
	}
}

// TestReleaseBeforeFinishReclaimsBothCopies: the driver drops its future
// while the task still runs, so both the delivered copy and the producer's
// land as garbage; each is collected by the republish its own
// AddObjectLocation makes, and the reference books balance.
func TestReleaseBeforeFinishReclaimsBothCopies(t *testing.T) {
	f := newDeliveryFuncs()
	c := deliveryCluster(t, f, 0, true)
	d := c.Driver()
	ref, err := f.gated.Remote(d, 9, onGPU)
	if err != nil {
		t.Fatal(err)
	}
	<-f.entered
	d.Release(ref.Ref)
	c.Node(0).Lifetime().Tracker().Flush()
	waitFor(t, 5*time.Second, "the release to reach the object table", func() bool {
		info, ok := c.API.GetObject(ref.Ref.ID)
		return ok && info.EverRetained && info.RefCount == 0
	})
	close(f.gate)

	got := settled(t, c, traffic{}, 1)
	if got.pushSent != 1 || got.pushReceived != 1 || got.pulledObjects != 0 {
		t.Fatalf("%+v, want the result delivered and nothing pulled", got)
	}
	waitFor(t, 10*time.Second, "both copies to be reclaimed", func() bool {
		info, _ := c.API.GetObject(ref.Ref.ID)
		return !c.Node(0).Store().Contains(ref.Ref.ID) && !c.Node(1).Store().Contains(ref.Ref.ID) && len(info.Locations) == 0
	})
	check := chaostest.New(c.API)
	check.AwaitZeroRefcounts(t, 10*time.Second)
	check.AwaitRefConservation(t, 10*time.Second, map[string]chaostest.Ledger{
		"node-0": c.Node(0).Lifetime().Tracker(),
		"node-1": c.Node(1).Lifetime().Tracker(),
	})
}
