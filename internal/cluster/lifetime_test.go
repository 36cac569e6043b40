package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// blobRegistry registers "blob": returns a deterministic payload of the
// given size, tagged by seed.
func blobRegistry() (*core.Registry, core.Func2[int, int, []byte]) {
	reg := core.NewRegistry()
	blob := core.Register2(reg, "blob", func(tc *core.TaskContext, seed, size int) ([]byte, error) {
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(seed * (i + 1))
		}
		return out, nil
	})
	return reg, blob
}

// TestSpillCompletesOversizedWorkingSet is the lifetime subsystem's
// acceptance workload: a live working set several times the store's memory
// capacity completes via spill/restore where it previously died with
// ErrStoreFull, and dropping the driver's references reclaims everything.
func TestSpillCompletesOversizedWorkingSet(t *testing.T) {
	reg, blob := blobRegistry()
	const (
		capacity = 64 << 10
		blobSize = 16 << 10
		n        = 16 // 16 * 16 KiB = 4x memory capacity
	)
	c, err := New(Config{
		Nodes:         1,
		Registry:      reg,
		StoreCapacity: capacity,
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()

	refs := make([]core.Ref[[]byte], n)
	for i := range refs {
		refs[i], err = blob.Remote(d, i+1, blobSize)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every output is referenced (live working set) and must be readable:
	// the store has to spill, not evict or fail.
	for i, r := range refs {
		data, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatalf("get blob %d: %v", i, err)
		}
		want := byte((i + 1) * blobSize) // last byte of blob i
		if len(data) != blobSize || data[blobSize-1] != want {
			t.Fatalf("blob %d corrupted (len %d)", i, len(data))
		}
	}
	store := c.Node(0).Store()
	if store.Stats().Spills == 0 {
		t.Fatal("working set exceeded memory but nothing spilled")
	}
	if store.Used() > capacity {
		t.Fatalf("memory use %d exceeds capacity %d", store.Used(), capacity)
	}

	// Drop the driver's references: the lifetime GC must reclaim every
	// byte, memory and disk.
	raw := make([]core.ObjectRef, n)
	for i, r := range refs {
		raw[i] = r.Untyped()
	}
	d.Release(raw...)
	deadline := time.After(5 * time.Second)
	for store.Used() != 0 || store.SpilledBytes() != 0 {
		select {
		case <-deadline:
			t.Fatalf("not reclaimed: used=%d spilled=%d", store.Used(), store.SpilledBytes())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if c.Node(0).Lifetime().Reclaimed() == 0 {
		t.Fatal("lifetime manager reclaimed nothing")
	}

	// A Get on a released ref races the end of the record's life (DESIGN.md
	// §17): until the records are retired, lineage replay regenerates the
	// bytes on demand (spill + reconstruction cooperating); after, the
	// answer is typed. Never a hang, never other bytes.
	data, err := core.Get(ctx, d, refs[0])
	if errors.Is(err, core.ErrReclaimed) {
		return
	}
	if err != nil {
		t.Fatalf("get after reclaim: %v", err)
	}
	fresh := make([]byte, blobSize)
	for i := range fresh {
		fresh[i] = byte(1 * (i + 1))
	}
	if !bytes.Equal(data, fresh) {
		t.Fatal("reconstructed blob differs from original")
	}
}

// TestBorrowProtectsQueuedArguments pins down the scheduler borrow: a
// dependency whose driver reference is dropped while a consumer task is
// queued must survive until the consumer has run.
func TestBorrowProtectsQueuedArguments(t *testing.T) {
	reg := core.NewRegistry()
	size := core.Register1(reg, "size", func(tc *core.TaskContext, b []byte) (int, error) {
		return len(b), nil
	})
	c, err := New(Config{Nodes: 1, Registry: reg, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()

	arg, err := d.Put(bytes.Repeat([]byte{7}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := size.RemoteRef(d, core.Ref[[]byte]{Ref: arg})
	if err != nil {
		t.Fatal(err)
	}
	// Submit has returned, so the scheduler's borrow is in place; dropping
	// the driver's reference must not reclaim the argument mid-flight.
	d.Release(arg)
	v, err := core.Get(ctx, d, ref)
	if err != nil || v != 1024 {
		t.Fatalf("consumer saw %d, %v", v, err)
	}
	// Once the consumer finished its borrow drops too; the Put object (no
	// lineage) is then reclaimed for good.
	store := c.Node(0).Store()
	deadline := time.After(5 * time.Second)
	for store.Contains(arg.ID) {
		select {
		case <-deadline:
			t.Fatal("argument never reclaimed after borrows drained")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestSpilledTaskArgsSurviveEarlyRelease pins down the spill-queue borrow
// bridge: a task forced through the global spill queue (SpillAlways) must
// keep its driver-Put argument alive even when the driver releases it
// right after submit — a Put object lost in that window is gone for good
// (no lineage), so without the bridge the task would hang.
func TestSpilledTaskArgsSurviveEarlyRelease(t *testing.T) {
	reg := core.NewRegistry()
	size := core.Register1(reg, "size", func(tc *core.TaskContext, b []byte) (int, error) {
		return len(b), nil
	})
	c, err := New(Config{
		Nodes:          1,
		Registry:       reg,
		SpillThreshold: SpillThresholdOf(0), // every task through the global queue
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	for i := 0; i < 8; i++ {
		arg, err := d.Put(bytes.Repeat([]byte{9}, 2048))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := size.RemoteRef(d, core.Ref[[]byte]{Ref: arg})
		if err != nil {
			t.Fatal(err)
		}
		d.Release(arg) // the task is still in (or headed for) the spill queue
		v, err := core.Get(ctx, d, ref)
		if err != nil {
			t.Fatalf("round %d: consumer lost its argument: %v", i, err)
		}
		if v != 2048 {
			t.Fatalf("round %d: got %d", i, v)
		}
	}
}

// TestShutdownSettlesReferences: a graceful node shutdown releases every
// reference its tracker holds, so objects it alone kept alive become
// reclaimable on surviving nodes.
func TestShutdownSettlesReferences(t *testing.T) {
	reg, blob := blobRegistry()
	c, err := New(Config{Nodes: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	// Driver on node 1 creates and reads a blob; only node 1's tracker
	// holds the reference.
	d1 := c.DriverOn(1)
	ref, err := blob.Remote(d1, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Get(ctx, d1, ref); err != nil {
		t.Fatal(err)
	}
	id := ref.Untyped().ID
	// The driver's retain rides a batched ledger flush; await it landing in
	// the control plane's count before testing the shutdown release.
	setup := time.After(2 * time.Second)
	for {
		if info, _ := c.Ctrl.GetObject(id); info.RefCount > 0 {
			break
		}
		select {
		case <-setup:
			t.Fatal("setup: driver's reference never flushed")
		case <-time.After(2 * time.Millisecond):
		}
	}

	c.Node(1).Shutdown()
	deadline := time.After(5 * time.Second)
	for {
		info, _ := c.Ctrl.GetObject(id)
		if info.RefCount == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("refcount still %d after graceful shutdown", info.RefCount)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestChunkedPullAcrossClusterNodes exercises the chunked pull protocol in
// a full cluster: a large object produced on one node is consumed on
// another, transferring as parallel chunks.
func TestChunkedPullAcrossClusterNodes(t *testing.T) {
	reg, blob := blobRegistry()
	c, err := New(Config{
		Nodes: 2,
		PerNodeResources: []types.Resources{
			types.CPU(4),
			{types.ResCPU: 4, types.ResGPU: 1},
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver() // attached to node 0
	ctx := context.Background()

	// Force production onto node 1 via the GPU demand, then Get from node 0.
	ref, err := blob.Remote(d, 3, 1<<20, core.WithResources(types.Resources{types.ResCPU: 1, types.ResGPU: 1}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.Get(ctx, d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1<<20 || data[0] != 3 {
		t.Fatalf("pulled blob corrupted (len %d)", len(data))
	}
	if _, chunks, _ := c.Node(0).Puller().Stats(); chunks < 2 {
		t.Fatalf("large pull used %d chunks; chunking not engaged", chunks)
	}
}
