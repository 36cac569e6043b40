package lifetime

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/objectstore"
	"repro/internal/transport"
	"repro/internal/types"
)

func testNode(i uint64) types.NodeID {
	return types.NodeID(types.DeriveTaskID(types.NilTaskID, 5000+i))
}

func testObj(i uint64) types.ObjectID {
	return types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, i), 0)
}

// pullFixture builds a destination store pulling from n source stores over
// nw. Sources are addressable as "src-0", "src-1", ...
func pullFixture(t testing.TB, nw transport.Network, nsrc int, cfg PullConfig) (srcs []*objectstore.Store, dst *objectstore.Store, ctrl *gcs.Store, pm *PullManager) {
	t.Helper()
	ctrl = gcs.NewStore(4)
	addrs := make(map[types.NodeID]string)
	for i := 0; i < nsrc; i++ {
		src := objectstore.New(testNode(uint64(i+1)), ctrl, 0)
		srv := transport.NewServer()
		objectstore.RegisterPullHandler(srv, src)
		addr := "src-" + string(rune('0'+i))
		if _, err := nw.Listen(addr, srv); err != nil {
			t.Fatal(err)
		}
		addrs[src.Node()] = addr
		srcs = append(srcs, src)
	}
	dst = objectstore.New(testNode(99), ctrl, 0)
	pm = NewPullManager(dst, ctrl, nw, func(n types.NodeID) (string, bool) {
		a, ok := addrs[n]
		return a, ok
	}, cfg)
	t.Cleanup(pm.Close)
	return srcs, dst, ctrl, pm
}

func TestPullWholeRemoteObject(t *testing.T) {
	srcs, dst, ctrl, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{})
	id := testObj(30)
	srcs[0].Put(id, []byte("remote-bytes"))
	if err := pm.Fetch(context.Background(), id, []types.NodeID{srcs[0].Node()}); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(id)
	if !ok || !bytes.Equal(got, []byte("remote-bytes")) {
		t.Fatalf("fetched = %q, %v", got, ok)
	}
	// Both locations registered.
	info, _ := ctrl.GetObject(id)
	if len(info.Locations) != 2 {
		t.Fatalf("locations = %v", info.Locations)
	}
	objects, chunks, _ := pm.Stats()
	if objects != 1 || chunks != 1 {
		t.Fatalf("stats = %d objects, %d chunks; want 1, 1", objects, chunks)
	}
}

func TestFetchAlreadyLocalIsNoop(t *testing.T) {
	_, dst, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{})
	id := testObj(31)
	dst.Put(id, []byte("here"))
	if err := pm.Fetch(context.Background(), id, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFetchNoLocationsFails(t *testing.T) {
	_, _, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{})
	if err := pm.Fetch(context.Background(), testObj(32), nil); err == nil {
		t.Fatal("fetch with no locations succeeded")
	}
}

func TestFetchSkipsDeadPeerAndFails(t *testing.T) {
	_, _, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{})
	// Location points at a node with no registered address.
	err := pm.Fetch(context.Background(), testObj(33), []types.NodeID{testNode(9)})
	if err == nil {
		t.Fatal("fetch from unknown peer succeeded")
	}
}

func TestFetchMissingObjectOnPeer(t *testing.T) {
	srcs, _, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{})
	err := pm.Fetch(context.Background(), testObj(34), []types.NodeID{srcs[0].Node()})
	if err == nil {
		t.Fatal("fetch of object absent on peer succeeded")
	}
}

func TestConcurrentFetchesCollapse(t *testing.T) {
	srcs, dst, _, pm := pullFixture(t, transport.NewInproc(time.Millisecond), 1, PullConfig{})
	id := testObj(35)
	srcs[0].Put(id, make([]byte, 1024))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pm.Fetch(context.Background(), id, []types.NodeID{srcs[0].Node()})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	if !dst.Contains(id) {
		t.Fatal("object not resident after concurrent fetches")
	}
	if objects, _, _ := pm.Stats(); objects != 1 {
		t.Fatalf("concurrent fetches did not collapse: %d pulls", objects)
	}
}

func patterned(n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	return payload
}

func TestChunkedPullAssembles(t *testing.T) {
	srcs, dst, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{ChunkSize: 1 << 10})
	id := testObj(40)
	payload := patterned(10<<10 + 137) // 10 chunks + a ragged tail
	srcs[0].Put(id, payload)
	if err := pm.Fetch(context.Background(), id, []types.NodeID{srcs[0].Node()}); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(id)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("chunked pull corrupted payload")
	}
	_, chunks, bytesPulled := pm.Stats()
	if chunks != 11 {
		t.Fatalf("chunks = %d, want 11", chunks)
	}
	if bytesPulled != int64(len(payload)) {
		t.Fatalf("bytes = %d, want %d", bytesPulled, len(payload))
	}
}

// BenchmarkChunkedPull1MiB is one in-process pull of a 1 MiB object at the
// default chunk size: four chunk calls that alias the source's bytes, and the
// reassembled copy the puller stores.
func BenchmarkChunkedPull1MiB(b *testing.B) {
	srcs, dst, _, pm := pullFixture(b, transport.NewInproc(0), 1, PullConfig{})
	id := testObj(45)
	if err := srcs[0].Put(id, patterned(1<<20)); err != nil {
		b.Fatal(err)
	}
	locs := []types.NodeID{srcs[0].Node()}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for b.Loop() {
		if err := pm.Fetch(context.Background(), id, locs); err != nil {
			b.Fatal(err)
		}
		dst.Delete(id)
	}
}

// TestChunkedPullCancelledStoresNothing pulls with a context that is already
// done. The first chunk's wait then sees a free slot and the cancellation at
// once and takes either; taking the slot must not skip recording the
// cancellation, or the pull reports success and stores a copy none of whose
// chunks were fetched. 32 tries take the slot about 16 times.
func TestChunkedPullCancelledStoresNothing(t *testing.T) {
	srcs, dst, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{ChunkSize: 1 << 10})
	id := testObj(47)
	srcs[0].Put(id, patterned(4<<10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 32; i++ {
		if err := pm.Fetch(ctx, id, []types.NodeID{srcs[0].Node()}); err == nil {
			t.Fatalf("pull %d with a cancelled context returned no error", i)
		}
		if dst.Contains(id) {
			t.Fatalf("pull %d with a cancelled context stored a copy", i)
		}
	}
}

func TestChunkedPullMultiPeer(t *testing.T) {
	srcs, dst, _, pm := pullFixture(t, transport.NewInproc(0), 2, PullConfig{ChunkSize: 512})
	id := testObj(41)
	payload := patterned(8 << 10)
	srcs[0].Put(id, payload)
	srcs[1].Put(id, payload)
	locs := []types.NodeID{srcs[0].Node(), srcs[1].Node()}
	if err := pm.Fetch(context.Background(), id, locs); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Get(id)
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-peer pull corrupted payload")
	}
}

func TestChunkedPullFallsBackOnPeerMissingObject(t *testing.T) {
	// Peer 1 is listed as a location but does not hold the object; every
	// chunk routed to it must fall back to peer 0.
	srcs, dst, _, pm := pullFixture(t, transport.NewInproc(0), 2, PullConfig{ChunkSize: 512})
	id := testObj(42)
	payload := patterned(4 << 10)
	srcs[0].Put(id, payload)
	locs := []types.NodeID{srcs[0].Node(), srcs[1].Node()}
	if err := pm.Fetch(context.Background(), id, locs); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Get(id)
	if !bytes.Equal(got, payload) {
		t.Fatal("fallback pull corrupted payload")
	}
}

func TestChunkedPullServesSpilledSource(t *testing.T) {
	// The source's copy lives on its disk tier; chunk serving must restore
	// it transparently.
	nw := transport.NewInproc(0)
	ctrl := gcs.NewStore(4)
	tier, err := NewDiskSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := objectstore.New(testNode(1), ctrl, 4<<10)
	src.SetSpillTier(tier)
	src.SetRefChecker(func(types.ObjectID) bool { return true })
	srv := transport.NewServer()
	objectstore.RegisterPullHandler(srv, src)
	if _, err := nw.Listen("src", srv); err != nil {
		t.Fatal(err)
	}
	big := testObj(43)
	payload := patterned(3 << 10)
	if err := src.Put(big, payload); err != nil {
		t.Fatal(err)
	}
	// Force big out of memory.
	if err := src.Put(testObj(44), patterned(3<<10)); err != nil {
		t.Fatal(err)
	}
	if info, _ := ctrl.GetObject(big); !info.IsSpilledOn(src.Node()) {
		t.Fatal("object not spilled; pressure setup broken")
	}

	dst := objectstore.New(testNode(2), ctrl, 0)
	pm := NewPullManager(dst, ctrl, nw, func(types.NodeID) (string, bool) { return "src", true }, PullConfig{ChunkSize: 1 << 10})
	defer pm.Close()
	if err := pm.Fetch(context.Background(), big, []types.NodeID{src.Node()}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Get(big)
	if !bytes.Equal(got, payload) {
		t.Fatal("pull from spilled source corrupted payload")
	}
}

func TestChunkedPullOverTCP(t *testing.T) {
	ctrl := gcs.NewStore(2)
	src := objectstore.New(testNode(1), ctrl, 0)
	dst := objectstore.New(testNode(2), ctrl, 0)
	srv := transport.NewServer()
	objectstore.RegisterPullHandler(srv, src)
	l, err := transport.TCP{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pm := NewPullManager(dst, ctrl, transport.TCP{}, func(n types.NodeID) (string, bool) {
		return l.Addr(), n == testNode(1)
	}, PullConfig{ChunkSize: 32 << 10})
	defer pm.Close()
	id := testObj(36)
	payload := patterned(256 << 10)
	src.Put(id, payload)
	if err := pm.Fetch(context.Background(), id, []types.NodeID{testNode(1)}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Get(id)
	if !bytes.Equal(got, payload) {
		t.Fatal("TCP chunked transfer corrupted payload")
	}
	if _, chunks, _ := pm.Stats(); chunks != 8 {
		t.Fatalf("chunks = %d, want 8", chunks)
	}
}

func TestChunkRequestWire(t *testing.T) {
	id := testObj(50)
	req := objectstore.EncodeChunkRequest(id, 4096, 512)
	gotID, off, length, err := objectstore.DecodeChunkRequest(req)
	if err != nil || gotID != id || off != 4096 || length != 512 {
		t.Fatalf("round trip = %v %d %d %v", gotID, off, length, err)
	}
	if _, _, _, err := objectstore.DecodeChunkRequest(req[:10]); err == nil {
		t.Fatal("short request decoded")
	}
	if _, _, _, err := objectstore.DecodeChunkRequest(objectstore.EncodeChunkRequest(id, 0, 0)); err == nil {
		t.Fatal("zero-length request decoded")
	}
}
