// Memorypressure: the object lifetime subsystem end to end. A
// capacity-limited store is driven far past its memory budget: referenced
// objects spill to disk instead of failing with ErrStoreFull, Gets restore
// them transparently, releasing the driver's references reclaims every
// byte, and a node crash shows spill and lineage reconstruction repairing
// the same working set together.
//
//	go run ./examples/memorypressure
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/types"
)

const (
	capacity = 256 << 10 // per-node object store memory
	blobSize = 64 << 10  // each task output
	numBlobs = 24        // 24 * 64 KiB = 6x one node's memory
)

func main() {
	reg := core.NewRegistry()
	blob := core.Register2(reg, "blob", func(tc *core.TaskContext, seed, size int) ([]byte, error) {
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(seed * (i + 1))
		}
		return out, nil
	})

	spillDir, err := os.MkdirTemp("", "memorypressure-spill-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spillDir)

	c, err := cluster.New(cluster.Config{
		Nodes:         2,
		NodeResources: types.CPU(4),
		StoreCapacity: capacity,
		SpillDir:      spillDir,
		Registry:      reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver() // attached to node 0
	ctx := context.Background()

	// 1. Create a live working set 6x one node's memory, half produced on
	//    each node. Every output is referenced by the driver, so nothing may
	//    be dropped — without the spill tier this workload dies with
	//    ErrStoreFull — and the references live on node 0, so they survive
	//    node 1: a future keeps its lineage exactly as long as something
	//    holds a reference to it (DESIGN.md §17).
	fmt.Printf("working set: %d blobs x %d KiB against %d KiB of memory/node\n",
		numBlobs, blobSize>>10, capacity>>10)
	refs := make([]core.Ref[[]byte], numBlobs)
	for i := range refs {
		opts := []core.Option{core.WithResources(types.CPU(0.1))}
		if i%2 == 1 {
			opts = append(opts, core.WithLocality(c.Node(1).ID()))
		}
		if refs[i], err = blob.Remote(d, i+1, blobSize, opts...); err != nil {
			log.Fatal(err)
		}
	}
	// Wait for the whole set (wait never forces a transfer), then read the
	// node-0 half: those Gets exercise transparent spill/restore locally.
	raw := make([]core.ObjectRef, len(refs))
	for i, r := range refs {
		raw[i] = r.Untyped()
	}
	if _, _, err := d.Wait(ctx, raw, len(raw), time.Minute); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < numBlobs; i += 2 {
		data, err := core.Get(ctx, d, refs[i])
		if err != nil {
			log.Fatalf("get blob %d: %v", i, err)
		}
		if len(data) != blobSize {
			log.Fatalf("blob %d truncated: %d bytes", i, len(data))
		}
	}
	report := func(when string) {
		for i := 0; i < c.NumNodes(); i++ {
			st := c.Node(i).Store().Stats()
			st.Reclaimed = c.Node(i).Lifetime().Reclaimed()
			fmt.Printf("%s: node %d: %3d KiB in memory, %3d KiB spilled, %d spills, %d restores, %d reclaimed\n",
				when, i, st.UsedBytes>>10, st.SpilledBytes>>10, st.Spills, st.Restores, st.Reclaimed)
		}
	}
	report("after gets")

	// 2. Crash node 1: the only copies of its half — memory and spill
	//    files alike — are gone. Re-reading the full set forces lineage
	//    replay of the lost blobs onto the survivor, which must spill
	//    again to absorb them: reconstruction and the spill tier
	//    cooperating on one working set.
	c.KillNode(1)
	fmt.Println("killed node 1; re-reading the full working set")
	for i, r := range refs {
		data, err := core.Get(ctx, d, r)
		if err != nil {
			log.Fatalf("get blob %d after crash: %v", i, err)
		}
		if data[blobSize-1] != byte((i+1)*blobSize) {
			log.Fatalf("blob %d corrupted after reconstruction", i)
		}
	}
	report("after crash")

	// 3. Export the merged trace: task-table spans plus the data-plane
	//    spans (spill, restore, pull chunks, GCS RPCs) every node shipped
	//    via heartbeats, stitched to their owning tasks. Load the file in
	//    chrome://tracing or ui.perfetto.dev. Before the release: a task's
	//    spans come from its record, which goes when its outputs do.
	time.Sleep(100 * time.Millisecond) // let the last heartbeat ship spans
	tracePath := "memorypressure-trace.json"
	f, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	tl := profile.BuildFull(c.API)
	if err := tl.ExportChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d task spans + %d data-plane spans -> %s\n",
		len(tl.Spans), len(tl.Data), tracePath)
	// 4. Drop every reference: the distributed refcounts hit zero, the
	//    lifetime GC reclaims memory and disk on every surviving node, and
	//    the records of the blobs and of the tasks that made them are
	//    retired from the control plane.
	d.Release(raw...)
	deadline := time.After(10 * time.Second)
	store := c.Node(0).Store()
	for store.Used() != 0 || store.SpilledBytes() != 0 {
		select {
		case <-deadline:
			log.Fatalf("reclamation stalled: used=%d spilled=%d", store.Used(), store.SpilledBytes())
		case <-time.After(10 * time.Millisecond):
		}
	}
	report("after release")

	fmt.Println("ok: oversized working set served via spill/restore, survived a crash, and was fully reclaimed")
}
