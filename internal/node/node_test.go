package node

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

func testRegistry() *core.Registry {
	reg := core.NewRegistry()
	core.Register1(reg, "double", func(tc *core.TaskContext, x int) (int, error) {
		return 2 * x, nil
	})
	return reg
}

func newTestNode(t *testing.T, ctrl gcs.API, nw transport.Network, addr string, reg *core.Registry) *Node {
	t.Helper()
	n, err := New(Config{
		Resources:      types.CPU(4),
		Network:        nw,
		ListenAddr:     addr,
		Ctrl:           ctrl,
		Registry:       reg,
		SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	return n
}

func TestNodeRegistersWithControlPlane(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	n := newTestNode(t, ctrl, nw, "n1", testRegistry())
	info, ok := ctrl.GetNode(n.ID())
	if !ok || !info.Alive || info.Addr != "n1" {
		t.Fatalf("node info: %+v %v", info, ok)
	}
	if info.Total[types.ResCPU] != 4 {
		t.Fatalf("capacity: %v", info.Total)
	}
}

func TestNodeBackendRoundTrip(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	n := newTestNode(t, ctrl, nw, "n1", testRegistry())
	d := core.NewClient(n)
	ref, err := d.Submit1(core.Call{Function: "double", Args: []types.Arg{core.Val(21)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := d.Get(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.DecodeAs[int](raw)
	if err != nil || v != 42 {
		t.Fatalf("double(21) = %d, %v", v, err)
	}
}

func TestAssignMethodDeliversTasks(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	n := newTestNode(t, ctrl, nw, "n1", testRegistry())
	client, err := nw.Dial("n1")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	spec := types.TaskSpec{
		ID:         types.DeriveTaskID(types.NilTaskID, 80),
		Function:   "double",
		Args:       []types.Arg{core.Val(5)},
		NumReturns: 1,
		Resources:  types.CPU(1),
	}
	if _, err := client.Call(AssignMethod, codec.MustEncode(spec)); err != nil {
		t.Fatal(err)
	}
	d := core.NewClient(n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := d.Get(ctx, core.ObjectRef{ID: spec.ReturnID(0)})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := codec.DecodeAs[int](raw)
	if v != 10 {
		t.Fatalf("assigned task result = %d", v)
	}
	// Malformed assignment must error, not crash.
	if _, err := client.Call(AssignMethod, []byte("garbage")); err == nil {
		t.Fatal("garbage assignment accepted")
	}
}

func TestKillMarksDeadAndDropsObjects(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	n := newTestNode(t, ctrl, nw, "n1", testRegistry())
	obj := types.PutObjectID(types.DeriveTaskID(types.NilTaskID, 81), 1)
	if err := n.PutObject(obj, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Kill()
	info, _ := ctrl.GetNode(n.ID())
	if info.Alive {
		t.Fatal("killed node still alive in control plane")
	}
	oinfo, _ := ctrl.GetObject(obj)
	if oinfo.State != types.ObjectLost {
		t.Fatalf("object state after kill: %v", oinfo.State)
	}
	if _, err := n.SubmitTask(types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, 82), Function: "double", NumReturns: 1}); err == nil {
		t.Fatal("dead node accepted a task")
	}
	// Store must refuse resurrection.
	if err := n.PutObject(obj, []byte("x")); err == nil {
		t.Fatal("dead store accepted a Put")
	}
}

func TestHeartbeatsUpdateLoad(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	n, err := New(Config{
		Resources:         types.CPU(2),
		Network:           nw,
		ListenAddr:        "hb",
		Ctrl:              ctrl,
		Registry:          testRegistry(),
		SpillThreshold:    scheduler.SpillNever,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	deadline := time.After(2 * time.Second)
	for {
		info, _ := ctrl.GetNode(n.ID())
		if info.Available != nil && info.Available[types.ResCPU] == 2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("heartbeat never reported availability: %+v", info)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestNodeBootSweepsSpillOrphans plants leftover spill files (a previous
// incarnation's objects plus a crashed-write temp file) in the spill dir
// and asserts a booting node reclaims them: its fresh NodeID owns none of
// them, and their object-table entries are gone.
func TestNodeBootSweepsSpillOrphans(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	dir := t.TempDir()

	var stale types.ObjectID
	stale[0] = 42
	planted := []string{
		stale.Hex() + ".obj",
		stale.Hex() + ".obj.tmp",
	}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	n, err := New(Config{
		Resources:      types.CPU(2),
		SpillDir:       dir,
		Network:        nw,
		ListenAddr:     "sweeper",
		Ctrl:           ctrl,
		Registry:       testRegistry(),
		SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	for _, name := range planted {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived node boot", name)
		}
	}
}

// TestTCPClusterSmoke runs two nodes over real TCP sockets sharing one
// in-process control plane, with a task whose dependency must transfer
// between nodes — the multi-process data path end to end.
func TestTCPClusterSmoke(t *testing.T) {
	ctrl := gcs.NewStore(4)
	nw := transport.TCP{}
	reg := testRegistry()
	n1, err := New(Config{
		Resources:      types.CPU(2),
		Network:        nw,
		ListenAddr:     "127.0.0.1:0",
		Ctrl:           ctrl,
		Registry:       reg,
		SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Shutdown()
	n2, err := New(Config{
		Resources:      types.CPU(2),
		Network:        nw,
		ListenAddr:     "127.0.0.1:0",
		Ctrl:           ctrl,
		Registry:       reg,
		SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Shutdown()

	// Produce on node 1, consume from node 2: the argument object must
	// travel over TCP via the pull protocol.
	d1 := core.NewClient(n1)
	ref, err := d1.Submit1(core.Call{Function: "double", Args: []types.Arg{core.Val(100)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := d1.Get(ctx, ref); err != nil {
		t.Fatal(err)
	}
	d2 := core.NewClient(n2)
	ref2, err := d2.Submit1(core.Call{Function: "double", Args: []types.Arg{core.RefOf(ref)}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d2.Get(ctx, ref2)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := codec.DecodeAs[int](raw)
	if v != 400 {
		t.Fatalf("cross-node chain = %d, want 400", v)
	}
	if !n2.Store().Contains(ref.ID) {
		t.Fatal("dependency never transferred to node 2")
	}

	// A task submitted through node 1 and assigned to node 2, as the global
	// scheduler would, sends its result to node 1 over TCP when it finishes:
	// node 1's Get is served by the delivered copy, without a pull.
	pulled, _, _ := n1.Puller().Stats()
	spec := types.TaskSpec{
		ID:         types.DeriveTaskID(types.NilTaskID, 81),
		Function:   "double",
		Args:       []types.Arg{core.Val(7)},
		NumReturns: 1,
		Resources:  types.CPU(1),
		Origin:     n1.ID(),
	}
	client, err := nw.Dial(n2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Call(AssignMethod, codec.MustEncode(spec)); err != nil {
		t.Fatal(err)
	}
	raw, err = d1.Get(ctx, core.ObjectRef{ID: spec.ReturnID(0)})
	if v, _ := codec.DecodeAs[int](raw); err != nil || v != 14 {
		t.Fatalf("delivered result = %d, %v", v, err)
	}
	if after, _, _ := n1.Puller().Stats(); after != pulled {
		t.Fatalf("node 1 pulled %d objects for a result that should have been delivered", after-pulled)
	}
	// The push handler counts a push once its Put has returned, and that Put
	// is what woke the Get above: wait for the count rather than race it.
	received := func() int64 { return n1.Metrics().Snapshot().Counters["objectstore.push.received"] }
	for deadline := time.Now().Add(5 * time.Second); received() == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if got := received(); got != 1 {
		t.Fatalf("objectstore.push.received on node 1 = %d, want 1", got)
	}
}

// countingCtrl counts object-record reads, per object.
type countingCtrl struct {
	gcs.API
	mu    sync.Mutex
	reads map[types.ObjectID]int
}

func (c *countingCtrl) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	c.mu.Lock()
	c.reads[id]++
	c.mu.Unlock()
	return c.API.GetObject(id)
}

func (c *countingCtrl) readsOf(id types.ObjectID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads[id]
}

// TestRemoteResolveReadsTheRecordOnce: resolving an object that lives on
// another node costs one object-table read, whether a Get or a task's
// dependency asks — the pull takes size and spill state from the record the
// resolver fetched for its locations. On a sharded control plane each read
// is an RPC.
func TestRemoteResolveReadsTheRecordOnce(t *testing.T) {
	store := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	holder := newTestNode(t, store, nw, "holder", testRegistry())
	ctrl := &countingCtrl{API: store, reads: make(map[types.ObjectID]int)}
	n, err := New(Config{
		Resources: types.CPU(4), Network: nw, ListenAddr: "resolver", Ctrl: ctrl, Registry: testRegistry(),
		SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	forGet := types.PutObjectID(types.NilTaskID, 1)
	if err := holder.PutObject(forGet, codec.MustEncode(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ResolveObject(ctx, forGet); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.readsOf(forGet); got != 1 {
		t.Fatalf("a Get of a remote object read its record %d times, want 1", got)
	}

	forDep := types.PutObjectID(types.NilTaskID, 2)
	if err := holder.PutObject(forDep, codec.MustEncode(21)); err != nil {
		t.Fatal(err)
	}
	// Held for the test, so the task's released borrow does not make the
	// object GC-eligible: the GC's reclaim check reads the record too.
	n.RetainObject(forDep)
	d := core.NewClient(n)
	ref, err := d.Submit1(core.Call{Function: "double", Args: []types.Arg{types.RefArg(forDep)}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.Get(ctx, ref)
	if v, derr := codec.DecodeAs[int](raw); err != nil || derr != nil || v != 42 {
		t.Fatalf("double(ref 21) = %d, %v, %v", v, err, derr)
	}
	if got := ctrl.readsOf(forDep); got != 1 {
		t.Fatalf("resolving a task's remote dependency read its record %d times, want 1", got)
	}
	// A pull is counted after its Put, which may already have run the task
	// and answered the Get: wait for the count to settle.
	for deadline := time.Now().Add(5 * time.Second); ; {
		objects, _, _ := n.Puller().Stats()
		if objects >= 2 || time.Now().After(deadline) {
			if objects != 2 {
				t.Fatalf("pulled %d objects, want 2", objects)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// countingRecon counts the node's calls into the fault-tolerance layer.
type countingRecon struct {
	reconstructor
	calls atomic.Int64
}

func (c *countingRecon) RequestReturn(id types.ObjectID, task types.TaskID) error {
	c.calls.Add(1)
	return c.reconstructor.RequestReturn(id, task)
}

// countRecon puts a counter in front of n's reconstructor. Call it before
// anything resolves an object through n.
func countRecon(n *Node) *countingRecon {
	c := &countingRecon{reconstructor: n.recon}
	n.recon = c
	return c
}

// TestHealthyRemoteGetDoesNotProbeTheReconstructor: a Get that finds its
// object pending — every remote round trip does — must not run the
// stranded-producer check on its first pass. The check is for a producer
// that died with the task, and it is due a poll period in (~200 ms).
func TestHealthyRemoteGetDoesNotProbeTheReconstructor(t *testing.T) {
	ctrl := gcs.NewStore(2)
	nw := transport.NewInproc(0)
	reg := testRegistry()
	entered, gate := make(chan struct{}), make(chan struct{})
	core.Register1(reg, "gated", func(tc *core.TaskContext, x int) (int, error) {
		close(entered)
		<-gate
		return -x, nil
	})
	originCtrl := &countingCtrl{API: ctrl, reads: make(map[types.ObjectID]int)}
	origin := newTestNode(t, originCtrl, nw, "origin", reg)
	producer := newTestNode(t, ctrl, nw, "producer", reg)
	recon := countRecon(origin)

	// Submitted through origin, placed on producer, as the global scheduler
	// would: origin does not own the task, so its Get takes the resolver.
	spec := types.TaskSpec{
		ID: types.DeriveTaskID(types.NilTaskID, 90), Function: "gated", Args: []types.Arg{core.Val(7)},
		NumReturns: 1, Resources: types.CPU(1), Origin: origin.ID(),
	}
	if _, err := producer.sched.Submit(spec, true); err != nil {
		t.Fatal(err)
	}
	<-entered
	ret := spec.ReturnID(0)
	producer.taskled.Flush() // the object's record, with its producer edge, is in the table
	if info, ok := ctrl.GetObject(ret); !ok || info.State != types.ObjectPending || info.Producer != spec.ID {
		t.Fatalf("object record before the Get: %+v, %v", info, ok)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	got := make(chan error, 1)
	go func() {
		raw, err := core.NewClient(origin).Get(ctx, core.ObjectRef{ID: ret, Task: spec.ID})
		if v, derr := codec.DecodeAs[int](raw); err == nil && (derr != nil || v != -7) {
			err = fmt.Errorf("gated(7) = %d, %v", v, derr)
		}
		got <- err
	}()
	// The resolver's first pass has read the record — where the probe used
	// to follow — before the producer is let go.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if originCtrl.readsOf(ret) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the Get never reached the resolver")
		}
	}
	close(gate)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	// One probe is due per 20 wakeups of at most 10 ms: none, unless this
	// host stalled the round trip for that long.
	if allowed := int64(time.Since(start) / (100 * time.Millisecond)); recon.calls.Load() > allowed {
		t.Fatalf("%d reconstructor calls during a healthy remote round trip of %v, want 0", recon.calls.Load(), time.Since(start))
	}
}

// TestStrandedProducerIsStillReplayed: the check the healthy path no longer
// pays on its first pass still finds a producer stranded on a dead node — a
// task that was queued there when it died, its output forever pending — and
// replays it, a poll period into the Get.
func TestStrandedProducerIsStillReplayed(t *testing.T) {
	ctrl := gcs.NewStore(2)
	n := newTestNode(t, ctrl, transport.NewInproc(0), "waiter", testRegistry())
	recon := countRecon(n)

	dead := types.NodeID(types.DeriveTaskID(types.NilTaskID, 91))
	ctrl.RegisterNode(types.NodeInfo{ID: dead, Addr: "gone", Total: types.CPU(1)})
	ctrl.MarkNodeDead(dead)
	spec := types.TaskSpec{
		ID: types.DeriveTaskID(types.NilTaskID, 92), Function: "double", Args: []types.Arg{core.Val(21)},
		NumReturns: 1, Resources: types.CPU(1),
	}
	ctrl.AddTask(types.TaskState{Spec: spec, Status: types.TaskQueued, Node: dead, Owner: dead})
	ctrl.EnsureObject(spec.ReturnID(0), spec.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	raw, err := core.NewClient(n).Get(ctx, core.ObjectRef{ID: spec.ReturnID(0), Task: spec.ID})
	if v, derr := codec.DecodeAs[int](raw); err != nil || derr != nil || v != 42 {
		t.Fatalf("Get of a stranded producer's output = %d, %v, %v", v, err, derr)
	}
	if recon.calls.Load() == 0 {
		t.Fatal("the value arrived without the stranded-producer check")
	}
	// ~200 ms is the documented detection time; the margin is for a loaded
	// host, the bound is against the check never coming due.
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("replay took %v, want about 200 ms", took)
	}
}

// TestOwnerGetLeavesNoWatchers is the ledger-side twin of the scheduler's
// TestResolveLeavesNoWaiters: an owner-side Get waits on one end watcher in
// the task ledger, and one ended by a cancelled context, or by the node
// stopping, leaves none behind — neither in the record's waiter slot nor in
// the watch map. A Get whose context is cancelled as its task ends may find
// the end event already sent: the channel goes back to the pool empty, so it
// brings no stale event into the next Get.
func TestOwnerGetLeavesNoWatchers(t *testing.T) {
	reg := core.NewRegistry()
	gate := make(chan struct{})
	// "cancelling" waits for its Get to be watching, then cancels that Get
	// as it returns: the Get's wake and the task's end event race.
	var getCancel atomic.Pointer[context.CancelFunc]
	watching := make(chan struct{})
	reg.Register("cancelling", func(*core.TaskContext, [][]byte) ([][]byte, error) {
		<-watching
		(*getCancel.Load())()
		return [][]byte{nil}, nil
	})
	reg.Register("gated", func(*core.TaskContext, [][]byte) ([][]byte, error) {
		<-gate
		return [][]byte{nil}, nil
	})
	n := newTestNode(t, gcs.NewStore(2), transport.NewInproc(0), "n1", reg)
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	defer open() // ahead of the node's shutdown, should the test fail first
	d := core.NewClient(n)
	submit := func(fn string) core.ObjectRef {
		t.Helper()
		refs, err := d.SubmitOpts(fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		return refs[0]
	}
	for i := range 200 {
		ctx, cancel := context.WithCancel(context.Background())
		getCancel.Store(&cancel)
		ref := submit("cancelling")
		go func() {
			for n.TaskLedger().Watchers(ref.Task) == 0 {
				runtime.Gosched()
			}
			watching <- struct{}{}
		}()
		if _, err := n.ResolveTaskOutput(ctx, ref.Task, ref.ID); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("Get %d = %v", i, err)
		}
		if w := n.TaskLedger().Watchers(ref.Task); w != 0 {
			t.Fatalf("Get %d left %d end watchers", i, w)
		}
		ch := endWaits.Get().(chan types.TaskID)
		if len(ch) != 0 {
			t.Fatalf("Get %d put back a channel holding %v", i, <-ch)
		}
		endWaits.Put(ch)
		d.Release(ref)
	}

	// Gets that wait on a running task, each behind one already waiting so
	// that the second takes the watch map; ended by cancellation, then by
	// the node stopping.
	ref := submit("gated")
	waiting := func(k int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); n.TaskLedger().Watchers(ref.Task) != k; {
			if time.Now().After(deadline) {
				t.Fatalf("%d end watchers, want %d", n.TaskLedger().Watchers(ref.Task), k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	get := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := n.ResolveTaskOutput(ctx, ref.Task, ref.ID)
			done <- err
		}()
		return done
	}
	first := get(context.Background())
	waiting(1)
	ctx, cancel := context.WithCancel(context.Background())
	second := get(ctx)
	waiting(2)
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get = %v", err)
	}
	waiting(1)
	stopped := make(chan struct{})
	go func() { n.Shutdown(); close(stopped) }()
	if err := <-first; !errors.Is(err, scheduler.ErrStopped) {
		t.Fatalf("Get across the node's stop = %v", err)
	}
	if w := n.TaskLedger().Watchers(ref.Task); w != 0 {
		t.Fatalf("a Get ended by the node's stop left %d end watchers", w)
	}
	open()
	<-stopped
}
