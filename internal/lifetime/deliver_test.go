package lifetime

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestMissingObjectKeepsPeerConnection: a pull that a peer answers with
// "not found" (a stale location) must leave the shared connection to that
// peer open. Over real TCP closing it fails every other call in flight on
// it, so the concurrent pull of an object that IS there would die too.
func TestMissingObjectKeepsPeerConnection(t *testing.T) {
	present, absent := testObj(60), testObj(61)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := transport.NewServer()
	srv.Handle(objectstore.PullMethod, func(payload []byte) ([]byte, error) {
		if !bytes.Equal(payload, present[:]) {
			return nil, objectstore.ErrNotFound
		}
		close(entered)
		<-release
		return []byte("present"), nil
	})
	l, err := transport.TCP{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr()

	ctrl := gcs.NewStore(1)
	dst := objectstore.New(testNode(99), ctrl, 0)
	pm := NewPullManager(dst, ctrl, transport.TCP{}, func(types.NodeID) (string, bool) { return addr, true }, PullConfig{})
	defer pm.Close()
	peer := []types.NodeID{testNode(1)}

	held := make(chan error, 1)
	go func() { held <- pm.Fetch(context.Background(), present, peer) }()
	<-entered // the first pull's call is in flight on the peer connection
	if err := pm.Fetch(context.Background(), absent, peer); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("pull of an absent object: %v, want the peer's not-found", err)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("the pull sharing the connection failed: %v", err)
	}
	if got, ok := dst.Get(present); !ok || string(got) != "present" {
		t.Fatalf("pulled %q, %v", got, ok)
	}
}

// countingCtrl counts object-record reads.
type countingCtrl struct {
	gcs.API
	getObject atomic.Int64
}

func (c *countingCtrl) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	c.getObject.Add(1)
	return c.API.GetObject(id)
}

// TestFetchObjectReadsNoRecord: a caller that hands over the record it has
// just read pays no second read for it inside the pull; Fetch, which takes
// only locations, reads it once.
func TestFetchObjectReadsNoRecord(t *testing.T) {
	nw := transport.NewInproc(0)
	store := gcs.NewStore(1)
	ctrl := &countingCtrl{API: store}
	src := objectstore.New(testNode(1), store, 0)
	srv := transport.NewServer()
	objectstore.RegisterPullHandler(srv, src)
	if _, err := nw.Listen("src", srv); err != nil {
		t.Fatal(err)
	}
	dst := objectstore.New(testNode(99), store, 0)
	pm := NewPullManager(dst, ctrl, nw, func(types.NodeID) (string, bool) { return "src", true }, PullConfig{ChunkSize: 1 << 10})
	defer pm.Close()

	whole, chunked, byFetch := testObj(62), testObj(63), testObj(64)
	src.Put(whole, []byte("small"))
	src.Put(chunked, make([]byte, 3<<10+7))
	src.Put(byFetch, []byte("small"))
	for _, id := range []types.ObjectID{whole, chunked} {
		info, _ := store.GetObject(id)
		if err := pm.FetchObject(context.Background(), info); err != nil {
			t.Fatal(err)
		}
		if !dst.Contains(id) {
			t.Fatalf("%v not pulled", id)
		}
	}
	if n := ctrl.getObject.Load(); n != 0 {
		t.Fatalf("FetchObject read the record %d times, want 0", n)
	}
	if _, chunks, _ := pm.Stats(); chunks != 1+4 {
		t.Fatalf("pulled %d chunks, want 1 whole + 4 (size taken from the record)", chunks)
	}
	if err := pm.Fetch(context.Background(), byFetch, []types.NodeID{src.Node()}); err != nil {
		t.Fatal(err)
	}
	if n := ctrl.getObject.Load(); n != 1 {
		t.Fatalf("Fetch read the record %d times, want 1", n)
	}
}

// deliverFixture is an origin store behind a push handler, and the pull
// manager of an executing node that knows the origin at "origin".
type deliverFixture struct {
	ctrl      *gcs.Store
	origin    *objectstore.Store
	accepting atomic.Bool
	resolves  atomic.Int64
	pm        *PullManager
	reg       *metrics.Registry
}

func newDeliverFixture(t *testing.T, nw transport.Network, addr string) *deliverFixture {
	t.Helper()
	f := &deliverFixture{ctrl: gcs.NewStore(1), reg: metrics.NewRegistry()}
	f.accepting.Store(true)
	f.origin = objectstore.New(testNode(1), f.ctrl, 0)
	srv := transport.NewServer()
	objectstore.RegisterPushHandler(srv, f.origin, f.accepting.Load)
	l, err := nw.Listen(addr, srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	local := objectstore.New(testNode(2), f.ctrl, 0)
	f.pm = NewPullManager(local, f.ctrl, nw, func(n types.NodeID) (string, bool) {
		f.resolves.Add(1)
		return addr, n == f.origin.Node()
	}, PullConfig{})
	f.pm.SetObservability(f.reg, nil)
	t.Cleanup(f.pm.Close)
	return f
}

func (f *deliverFixture) counter(name string) int64 { return f.reg.Snapshot().Counters[name] }

// deliver offers a return value the way the executor's hook does.
func deliver(pm *PullManager, spec types.TaskSpec, id types.ObjectID, data []byte) {
	pm.Deliver(spec.Origin, spec.ID, spec.TraceID, id, data)
}

func specFrom(origin types.NodeID, i uint64) (types.TaskSpec, types.ObjectID) {
	spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, i), NumReturns: 1, Origin: origin}
	return spec, spec.ReturnID(0)
}

func TestDeliverStoresAndPublishesAtOrigin(t *testing.T) {
	f := newDeliverFixture(t, transport.NewInproc(0), "origin")
	spec, id := specFrom(f.origin.Node(), 70)
	arrived := make(chan types.ObjectID, 1)
	f.origin.SetArrivalHook(func(id types.ObjectID) { arrived <- id })
	deliver(f.pm, spec, id, []byte("result"))
	select {
	case <-arrived:
	default:
		t.Fatal("the delivery did not tell the origin's arrival hook")
	}
	if got, ok := f.origin.Get(id); !ok || string(got) != "result" {
		t.Fatalf("origin holds %q, %v", got, ok)
	}
	// An ordinary copy: the origin is a published location, nothing else is.
	info, _ := f.ctrl.GetObject(id)
	if info.State != types.ObjectReady || len(info.Locations) != 1 || info.Locations[0] != f.origin.Node() {
		t.Fatalf("record after delivery: %+v", info)
	}
	if sent, by, failed := f.counter("objectstore.push.sent"), f.counter("objectstore.push.bytes"), f.counter("objectstore.push.failed"); sent != 1 || by != 6 || failed != 0 {
		t.Fatalf("sent %d, bytes %d, failed %d; want 1, 6, 0", sent, by, failed)
	}
	// A second completion to the same origin pays no address lookup.
	spec2, id2 := specFrom(f.origin.Node(), 71)
	deliver(f.pm, spec2, id2, nil)
	if !f.origin.Contains(id2) {
		t.Fatal("zero-byte result not delivered")
	}
	if n := f.resolves.Load(); n != 1 {
		t.Fatalf("resolved the origin's address %d times over two deliveries, want 1", n)
	}
}

func TestDeliverSkipsWhatIsNotForIt(t *testing.T) {
	f := newDeliverFixture(t, transport.NewInproc(0), "origin")
	self := f.pm.store.Node()
	for name, tc := range map[string]struct {
		origin types.NodeID
		size   int
	}{
		"no origin":           {types.NodeID{}, 1},
		"origin is this node": {self, 1},
		"over the size limit": {f.origin.Node(), maxDeliverBytes + 1},
	} {
		spec, id := specFrom(tc.origin, 72)
		deliver(f.pm, spec, id, make([]byte, tc.size))
		if f.origin.Contains(id) || f.counter("objectstore.push.sent")+f.counter("objectstore.push.failed") != 0 {
			t.Fatalf("%s: a delivery was attempted", name)
		}
	}
	spec, id := specFrom(f.origin.Node(), 73)
	deliver(f.pm, spec, id, make([]byte, maxDeliverBytes))
	if !f.origin.Contains(id) {
		t.Fatal("a result of exactly the limit was not delivered")
	}
}

// A refusing or unknown origin costs nothing but the attempt, and a
// refusal — the origin's answer — leaves the connection to it cached.
func TestDeliverFallsBackQuietly(t *testing.T) {
	f := newDeliverFixture(t, transport.NewInproc(0), "origin")
	f.accepting.Store(false)
	spec, id := specFrom(f.origin.Node(), 74)
	deliver(f.pm, spec, id, []byte("x"))
	if f.origin.Contains(id) || f.counter("objectstore.push.failed") != 1 {
		t.Fatalf("refused delivery: stored %v, failed %d", f.origin.Contains(id), f.counter("objectstore.push.failed"))
	}
	f.pm.mu.Lock()
	_, cached := f.pm.conns["origin"]
	f.pm.mu.Unlock()
	if !cached {
		t.Fatal("the origin's refusal dropped the connection to it")
	}
	ghost, gid := specFrom(testNode(7), 75)
	deliver(f.pm, ghost, gid, []byte("x"))
	if f.counter("objectstore.push.failed") != 2 {
		t.Fatal("a delivery to an unresolvable origin was not counted as failed")
	}
	f.accepting.Store(true)
	deliver(f.pm, spec, id, []byte("x"))
	if !f.origin.Contains(id) {
		t.Fatal("delivery did not resume once the origin accepted again")
	}
}

// A stalled origin holds the executor for deliverTimeout at most, over a
// real connection; giving up closes it, and the next delivery redials.
func TestDeliverGivesUpOnAStalledOrigin(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Bool
	stalled.Store(true)
	origin := objectstore.New(testNode(1), gcs.NewStore(1), 0)
	srv := transport.NewServer()
	srv.Handle(objectstore.PushMethod, func(payload []byte) ([]byte, error) {
		if stalled.Load() {
			<-release
		}
		var id types.ObjectID
		copy(id[:], payload)
		return nil, origin.Put(id, payload[types.IDSize:])
	})
	l, err := transport.TCP{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr()
	defer close(release)
	reg := metrics.NewRegistry()
	pm := NewPullManager(objectstore.New(testNode(2), gcs.NewStore(1), 0), gcs.NewStore(1), transport.TCP{},
		func(types.NodeID) (string, bool) { return addr, true }, PullConfig{})
	pm.SetObservability(reg, nil)
	defer pm.Close()

	spec, id := specFrom(origin.Node(), 76)
	start := time.Now()
	deliver(pm, spec, id, []byte("late"))
	if took := time.Since(start); took < deliverTimeout || took > 3*deliverTimeout {
		t.Fatalf("gave up after %v, want about %v", took, deliverTimeout)
	}
	if n := reg.Snapshot().Counters["objectstore.push.failed"]; n != 1 {
		t.Fatalf("failed = %d, want 1", n)
	}
	stalled.Store(false)
	spec2, id2 := specFrom(origin.Node(), 77)
	deliver(pm, spec2, id2, []byte("ok"))
	if !origin.Contains(id2) {
		t.Fatal("delivery after the stall did not redial and land")
	}
}
