package cluster

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/node"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// readProbe is a ctrlProbe that also counts the two calls ctrlProbe passes
// through uncounted: a dependency table's looks (WatchObjects) and
// subscriptions, of any topic.
type readProbe struct {
	*ctrlProbe
	watches, subs atomic.Int64
}

func (p *readProbe) WatchObjects(node types.NodeID, ids []types.ObjectID) []gcs.ObjectWatch {
	p.watches.Add(1)
	return p.ctrlProbe.WatchObjects(node, ids)
}

func (p *readProbe) Subscribe(topic gcs.Topic, id [types.IDSize]byte) gcs.Sub {
	p.subs.Add(1)
	return p.ctrlProbe.Subscribe(topic, id)
}

// readCounts is what a reader's Gets and Waits can cost its control plane:
// looks, record reads, subscriptions, and calls made on a Wait's goroutine.
type readCounts struct{ watches, gets, subs, onWait int64 }

func (p *readProbe) counts() readCounts {
	return readCounts{p.watches.Load(), p.gets.Load(), p.subs.Load(), p.onWait.Load()}
}

func (a readCounts) minus(b readCounts) readCounts {
	return readCounts{a.watches - b.watches, a.gets - b.gets, a.subs - b.subs, a.onWait - b.onWait}
}

// startedBy counts the live goroutines that fn, a function of this module,
// started.
func startedBy(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by repro/internal/"+fn)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRemoteGetAndWaitBudget pins, in counts through a probe on the reading
// node's control plane, what a Get and a Wait on another node's pending
// objects cost: they wait on the reader's dependency table. A Get makes no
// subscription, one look at most and no record read, and starts no
// goroutine; a Wait on n refs makes no subscription and one look at most,
// and starts no goroutine; a Wait on a ref that a task parked on the reader
// already waits on joins that task's row and makes no control-plane call.
func TestRemoteGetAndWaitBudget(t *testing.T) {
	const n = 32
	reg := core.NewRegistry()
	gates := map[string]chan struct{}{"budget.get": make(chan struct{}), "budget.wait": make(chan struct{}), "budget.parked": make(chan struct{})}
	end := make(chan struct{})
	for name, gate := range gates {
		reg.Register(name, func(*core.TaskContext, [][]byte) ([][]byte, error) {
			select {
			case <-gate:
			case <-end:
			}
			return [][]byte{nil}, nil
		})
	}
	reg.Register("budget.arg", func(*core.TaskContext, [][]byte) ([][]byte, error) { return [][]byte{nil}, nil })
	c, err := New(Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	t.Cleanup(func() { close(end) })
	probe := &readProbe{ctrlProbe: &ctrlProbe{API: c.API}}
	reader, err := node.New(node.Config{
		Resources: types.CPU(4), Network: c.Network, ListenAddr: "node-reader", Ctrl: probe,
		Registry: reg, SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reader.Shutdown)
	owner, d, dr, ctx := c.Node(0), c.Driver(), core.NewClient(reader), testCtx(t)
	// submit runs k gated tasks on the owner at once and lands their births,
	// so that their returns' records name their producer.
	submit := func(fn string, k int) []core.ObjectRef {
		t.Helper()
		refs := submitGated(t, d, fn, k)
		owner.TaskLedger().Flush()
		return refs
	}
	rows := func() int64 { return reader.Metrics().Snapshot().Gauges["scheduler.waiting.objects"] }
	// The reader's own three, from its start: its lifetime manager's, its
	// dependency table's ready feed and its drain watch, which subscribes
	// on a goroutine of its own.
	waitFor(t, 10*time.Second, "the reader's subscriptions", func() bool { return probe.subs.Load() == 3 })

	// A Get.
	ref := submit("budget.get", 1)[0]
	base := probe.counts()
	got := make(chan error, 1)
	go func() {
		_, err := dr.Get(ctx, ref)
		got <- err
	}()
	waitFor(t, 10*time.Second, "the Get's row to be looked at", func() bool { return probe.watches.Load() > base.watches })
	if k := startedBy("core.(*caller).get") + startedBy("scheduler.(*Local).Resolve"); k != 0 {
		t.Fatalf("a waiting remote Get started %d goroutines", k)
	}
	close(gates["budget.get"])
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if spent := probe.counts().minus(base); spent.subs != 0 || spent.watches > 1 || spent.gets != 0 {
		t.Fatalf("a remote Get made %d subscriptions, %d looks and %d record reads, want 0, ≤ 1 and 0",
			spent.subs, spent.watches, spent.gets)
	}

	// A Wait on n refs.
	refs := submit("budget.wait", n)
	base = probe.counts()
	res := asyncWait(ctx, dr, refs, n, -1)
	waitFor(t, 10*time.Second, "the Wait's rows to be looked at", func() bool {
		return rows() == n && probe.watches.Load() > base.watches
	})
	if k := startedBy("core.(*caller).wait"); k != 0 {
		t.Fatalf("a Wait on %d remote refs started %d goroutines", n, k)
	}
	close(gates["budget.wait"])
	if r := <-res; r.err != nil || len(r.ready) != n {
		t.Fatalf("Wait: %d ready, %v", len(r.ready), r.err)
	}
	if spent := probe.counts().minus(base); spent.subs != 0 || spent.watches > 1 || spent.onWait != 0 {
		t.Fatalf("a Wait on %d remote refs made %d subscriptions and %d looks, and %d calls of its own, want 0, ≤ 1 and 0",
			n, spent.subs, spent.watches, spent.onWait)
	}
	waitFor(t, 10*time.Second, "the Wait's rows to go", func() bool { return rows() == 0 })

	// A Wait on a ref a parked task waits on, made just after that task's
	// row was looked at: the row's next look and probe are a renewal period
	// (200 ms) away.
	p := submit("budget.parked", 1)[0]
	base = probe.counts()
	parked, err := dr.Submit1(core.Call{Function: "budget.arg", Args: []types.Arg{types.RefArg(p.ID)}, Resources: types.CPU(0.0001)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the task to park and its row to be looked at", func() bool {
		return rows() == 1 && probe.watches.Load() > base.watches
	})
	base = probe.counts()
	ready, pending, err := dr.Wait(ctx, []core.ObjectRef{p}, 1, 20*time.Millisecond)
	if err != nil || len(ready) != 0 || len(pending) != 1 {
		t.Fatalf("Wait on the parked task's argument: %d ready, %d pending, %v; want a timeout", len(ready), len(pending), err)
	}
	if spent := probe.counts().minus(base); spent != (readCounts{}) {
		t.Fatalf("a Wait on a ref a parked task waits on cost %+v, want nothing", spent)
	}
	if k := rows(); k != 1 {
		t.Fatalf("%d rows after the Wait, want the parked task's one", k)
	}
	close(gates["budget.parked"])
	if _, err := dr.Get(ctx, parked); err != nil {
		t.Fatal(err)
	}
}
