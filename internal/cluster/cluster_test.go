package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// testFuncs builds a registry with the functions the integration tests use.
type testFuncs struct {
	reg    *core.Registry
	square core.Func1[int, int]
	add    core.Func2[int, int, int]
	sleepy core.Func1[int, int]    // sleeps arg ms, returns arg
	fail   core.Func1[string, int] // always errors
	tree   core.Func2[int, int, int]
	gpu    core.Func1[int, int]
}

func newTestFuncs() *testFuncs {
	reg := core.NewRegistry()
	f := &testFuncs{reg: reg}
	f.square = core.Register1(reg, "square", func(tc *core.TaskContext, x int) (int, error) {
		return x * x, nil
	})
	f.add = core.Register2(reg, "add", func(tc *core.TaskContext, a, b int) (int, error) {
		return a + b, nil
	})
	f.sleepy = core.Register1(reg, "sleepy", func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	f.fail = core.Register1(reg, "fail", func(tc *core.TaskContext, msg string) (int, error) {
		return 0, errors.New(msg)
	})
	// tree recursively spawns subtasks: sum of leaves = 2^depth (R3 test).
	f.tree = core.Register2(reg, "tree", func(tc *core.TaskContext, depth, width int) (int, error) {
		if depth == 0 {
			return 1, nil
		}
		var refs []core.Ref[int]
		for i := 0; i < width; i++ {
			ref, err := f.tree.Remote(tc, depth-1, width)
			if err != nil {
				return 0, err
			}
			refs = append(refs, ref)
		}
		total := 0
		for _, r := range refs {
			v, err := core.TaskGet(tc, r)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	})
	f.gpu = core.Register1(reg, "gpu", func(tc *core.TaskContext, x int) (int, error) {
		return -x, nil
	})
	return f
}

func singleNode(t *testing.T, f *testFuncs) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 1, Registry: f.reg, NodeResources: types.CPU(8)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestSubmitGetRoundTrip(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	ref, err := f.square.Remote(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Get(context.Background(), d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if v != 49 {
		t.Fatalf("square(7) = %d", v)
	}
}

func TestDataflowDependencies(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	// add(square(3), square(4)) == 25 via futures (R5).
	a, _ := f.square.Remote(d, 3)
	b, _ := f.square.Remote(d, 4)
	sum, err := f.add.RemoteRefs(d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Get(context.Background(), d, sum)
	if err != nil {
		t.Fatal(err)
	}
	if v != 25 {
		t.Fatalf("got %d, want 25", v)
	}
}

func TestDeepChain(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	// square chained: ((2^2)^2)^2 = 256
	ref, _ := f.square.Remote(d, 2)
	for i := 0; i < 2; i++ {
		var err error
		ref, err = f.square.RemoteRef(d, ref)
		if err != nil {
			t.Fatal(err)
		}
	}
	v, err := core.Get(context.Background(), d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if v != 256 {
		t.Fatalf("chain = %d", v)
	}
}

func TestNestedTasksDynamicGraph(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	// Binary tree of depth 4: 16 leaves. Parents block on children (worker
	// lending must prevent deadlock: 31 tasks on 8 CPUs).
	ref, err := f.tree.Remote(d, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := core.Get(ctx, d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if v != 16 {
		t.Fatalf("tree sum = %d, want 16", v)
	}
}

func TestWaitReturnsEarlyCompleters(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	fast, _ := f.sleepy.Remote(d, 5)
	slow, _ := f.sleepy.Remote(d, 2000)
	refs := []core.ObjectRef{fast.Untyped(), slow.Untyped()}
	start := time.Now()
	ready, pending, err := d.Wait(context.Background(), refs, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Wait blocked on the straggler")
	}
	if len(ready) != 1 || ready[0].ID != fast.Untyped().ID {
		t.Fatalf("ready = %v", ready)
	}
	if len(pending) != 1 || pending[0].ID != slow.Untyped().ID {
		t.Fatalf("pending = %v", pending)
	}
}

func TestWaitTimeout(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	slow, _ := f.sleepy.Remote(d, 2000)
	start := time.Now()
	ready, pending, err := d.Wait(context.Background(), []core.ObjectRef{slow.Untyped()}, 1, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > time.Second {
		t.Fatalf("Wait returned after %v", elapsed)
	}
	if len(ready) != 0 || len(pending) != 1 {
		t.Fatalf("ready=%d pending=%d", len(ready), len(pending))
	}
}

func TestPutAndGet(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	ref, err := core.PutTyped(d, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Get(context.Background(), d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || v[2] != 3 {
		t.Fatalf("got %v", v)
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	ref, _ := f.fail.Remote(d, "boom")
	_, err := core.Get(context.Background(), d, ref)
	if !errors.Is(err, core.ErrTaskFailed) {
		t.Fatalf("err = %v, want ErrTaskFailed", err)
	}
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("error message lost: %v", err)
	}
}

// TestRecordValuedResultIsNotAnError: error payloads and the control-plane
// records' binary form once shared a tag byte, so a task returning cluster
// state came back from Get as ErrTaskFailed with the record as its message.
func TestRecordValuedResultIsNotAnError(t *testing.T) {
	reg := core.NewRegistry()
	want := types.NodeInfo{Addr: "x", Total: types.CPU(2), Alive: true}
	describe := core.Register0(reg, "describe", func(tc *core.TaskContext) (types.NodeInfo, error) {
		return want, nil
	})
	c, err := New(Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ref, err := describe.Remote(c.Driver())
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Get(context.Background(), c.Driver(), ref)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get of a NodeInfo-valued task: %+v, %v", got, err)
	}
}

func TestPanicBecomesTaskFailure(t *testing.T) {
	reg := core.NewRegistry()
	panicky := core.Register0(reg, "panicky", func(tc *core.TaskContext) (int, error) {
		panic("kaboom")
	})
	c, err := New(Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ref, _ := panicky.Remote(d)
	_, err = core.Get(context.Background(), d, ref)
	if !errors.Is(err, core.ErrTaskFailed) || !contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	reg := core.NewRegistry()
	attempts := make(chan struct{}, 16)
	flaky := core.Register0(reg, "flaky", func(tc *core.TaskContext) (int, error) {
		attempts <- struct{}{}
		if len(attempts) < 3 {
			return 0, errors.New("transient")
		}
		return 42, nil
	})
	c, err := New(Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ref, _ := flaky.Remote(d, core.WithMaxRetries(5))
	v, err := core.Get(context.Background(), d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 || len(attempts) != 3 {
		t.Fatalf("v=%d attempts=%d", v, len(attempts))
	}
}

func TestMultiNodeSpillover(t *testing.T) {
	f := newTestFuncs()
	// 4 nodes x 2 CPUs; spill threshold 1 pushes load through the global
	// scheduler onto every node.
	c, err := New(Config{
		Nodes:          4,
		NodeResources:  types.CPU(2),
		Registry:       f.reg,
		SpillThreshold: SpillThresholdOf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	var refs []core.Ref[int]
	for i := 0; i < 64; i++ {
		ref, err := f.square.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatal(err)
		}
		if v != i*i {
			t.Fatalf("task %d = %d", i, v)
		}
	}
	var placed int64
	for _, g := range c.Globals {
		placed += g.Placed()
	}
	if placed == 0 {
		t.Fatal("global scheduler never placed a task — spillover broken")
	}
	// Work must actually have spread beyond node 0.
	remote := int64(0)
	for i := 1; i < c.NumNodes(); i++ {
		remote += c.Node(i).Executor().Executed()
	}
	if remote == 0 {
		t.Fatal("no task executed on a remote node")
	}
}

func TestHeterogeneousGPUPlacement(t *testing.T) {
	f := newTestFuncs()
	// Node 0: CPU only. Node 1: has the GPU. GPU tasks must run on node 1.
	c, err := New(Config{
		Nodes: 2,
		PerNodeResources: []types.Resources{
			types.CPU(4),
			{types.ResCPU: 4, types.ResGPU: 1},
		},
		Registry: f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver() // driver on the CPU-only node
	var refs []core.Ref[int]
	for i := 0; i < 8; i++ {
		ref, err := f.gpu.Remote(d, i, core.WithResources(types.GPU(1, 1)))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatal(err)
		}
		if v != -i {
			t.Fatalf("gpu(%d) = %d", i, v)
		}
	}
	// A result is gettable once stored, just before its executor counts the
	// task executed, so the last count can trail the last Get.
	waitFor(t, 5*time.Second, "the GPU node to count all 8 tasks executed", func() bool {
		return c.Node(1).Executor().Executed() >= 8
	})
	if got := c.Node(0).Executor().Failed(); got != 0 {
		t.Fatalf("CPU node failed %d tasks", got)
	}
}

func TestObjectTransferBetweenNodes(t *testing.T) {
	f := newTestFuncs()
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(2),
		Registry:       f.reg,
		SpillThreshold: SpillThresholdOf(0), // force everything through global
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	a, _ := f.square.Remote(d, 5)
	b, _ := f.square.RemoteRef(d, a) // may land on a different node: transfer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := core.Get(ctx, d, b)
	if err != nil {
		t.Fatal(err)
	}
	if v != 625 {
		t.Fatalf("got %d, want 625", v)
	}
}

func TestReconstructionAfterNodeDeath(t *testing.T) {
	f := newTestFuncs()
	c, err := New(Config{
		Nodes:          3,
		NodeResources:  types.CPU(2),
		Registry:       f.reg,
		SpillThreshold: SpillThresholdOf(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	// Produce values across the cluster and wait for completion.
	var refs []core.Ref[int]
	for i := 0; i < 12; i++ {
		ref, err := f.square.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	raw := make([]core.ObjectRef, len(refs))
	for i, r := range refs {
		raw[i] = r.Untyped()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := d.Wait(ctx, raw, len(raw), 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill a non-driver node, and have the driver's node lose the copies that
	// were delivered to it (small results go to their origin as they finish,
	// DESIGN.md §6.3): objects produced on the killed node are now lost.
	c.KillNode(2)
	c.Node(0).Store().DropAll()
	ran := c.Node(0).Executor().Executed() + c.Node(1).Executor().Executed()

	// Every value must still be retrievable, via lineage replay if needed.
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatalf("get %d after node death: %v", i, err)
		}
		if v != i*i {
			t.Fatalf("reconstructed value %d = %d, want %d", i, v, i*i)
		}
	}
	if c.Node(0).Executor().Executed()+c.Node(1).Executor().Executed() == ran {
		t.Fatal("nothing was replayed: the kill lost no object, so this test tested nothing")
	}
}

func TestReconstructionOfDependencyChain(t *testing.T) {
	f := newTestFuncs()
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(4),
		Registry:       f.reg,
		SpillThreshold: SpillThresholdOf(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	a, _ := f.square.Remote(d, 2)        // 4
	b, _ := f.square.RemoteRef(d, a)     // 16
	chain, _ := f.square.RemoteRef(d, b) // 256
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := core.Get(ctx, d, chain); err != nil {
		t.Fatal(err)
	}
	// Lose everything on node 1, and the copies delivered to the driver's
	// node; the chain must be replayable end to end.
	c.KillNode(1)
	c.Node(0).Store().DropAll()
	v, err := core.Get(ctx, d, chain)
	if err != nil {
		t.Fatal(err)
	}
	if v != 256 {
		t.Fatalf("chain after reconstruction = %d", v)
	}
}

func TestDriverPutNotReconstructable(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	ref, err := d.Put("precious")
	if err != nil {
		t.Fatal(err)
	}
	// Drop the object everywhere.
	c.Node(0).Store().DropAll()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = d.Get(ctx, ref)
	if err == nil {
		t.Fatal("Get of dropped Put object succeeded")
	}
}

func TestCentralOnlyAblationStillCorrect(t *testing.T) {
	f := newTestFuncs()
	spill := scheduler.SpillAlways
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(4),
		Registry:       f.reg,
		SpillThreshold: &spill,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	var refs []core.Ref[int]
	for i := 0; i < 16; i++ {
		r, err := f.square.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil || v != i*i {
			t.Fatalf("task %d: %d, %v", i, v, err)
		}
	}
	// A placement is counted when the assignment call returns, which a fast
	// task's result — delivered to the driver's node as it finishes — can
	// beat.
	waitFor(t, 5*time.Second, "central-only mode to count all 16 placements", func() bool {
		return c.Globals[0].Placed() >= 16
	})
}

func TestManySmallTasksThroughput(t *testing.T) {
	f := newTestFuncs()
	c := singleNode(t, f)
	d := c.Driver()
	const n = 500
	refs := make([]core.ObjectRef, n)
	for i := 0; i < n; i++ {
		r, err := f.square.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r.Untyped()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ready, _, err := d.Wait(ctx, refs, n, 50*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != n {
		t.Fatalf("only %d/%d completed", len(ready), n)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || fmt.Sprintf("%s", s) != "" && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
