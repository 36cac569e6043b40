// Fault-tolerance example: the paper's Section 3.2.1 recovery story (R6),
// live. A workload runs across three nodes; one node is killed; objects
// whose only copies died transition to LOST in the control plane; Gets
// transparently replay the producing tasks from lineage. Then the actor
// extension shows stateful computation surviving the same failure.
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/types"
)

func main() {
	reg := core.NewRegistry()
	square := core.Register1(reg, "square", func(tc *core.TaskContext, x int) (int, error) {
		time.Sleep(2 * time.Millisecond) // visible work
		return x * x, nil
	})
	counterInit := core.RegisterActorInit(reg, "counter.init", func(tc *core.TaskContext) (int, error) {
		return 0, nil
	})
	counterAdd := core.RegisterActorMethod(reg, "counter.add", func(tc *core.TaskContext, state, x int) (int, int, error) {
		return state + x, state + x, nil
	})

	c, err := cluster.New(cluster.Config{
		Nodes:          3,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: cluster.SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{}, // spread work over all nodes
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Phase 1: compute 18 values across the cluster.
	fmt.Println("phase 1: computing square(0..17) across 3 nodes")
	var refs []core.Ref[int]
	raw := make([]core.ObjectRef, 0, 18)
	for i := 0; i < 18; i++ {
		r, err := square.Remote(d, i)
		if err != nil {
			log.Fatal(err)
		}
		refs = append(refs, r)
		raw = append(raw, r.Untyped())
	}
	if _, _, err := d.Wait(ctx, raw, len(raw), time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  all %d tasks finished; objects spread over the cluster\n", len(refs))

	// An actor accumulating state, also spread across the cluster.
	actor, err := core.NewActor(d, counterInit)
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := actor.Call(counterAdd, core.Val(i)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := d.Get(ctx, actor.StateRef()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  actor state materialized (sum 1..5 = 15)")

	// Phase 2: kill a node. Sole copies on it are now LOST. Small results
	// are also delivered to the node they were submitted through as they
	// finish, so the driver's node holds a second copy of every value made
	// elsewhere; it gives those up first (as it would under memory
	// pressure), or nothing would be lost and nothing replayed.
	fmt.Println("\nphase 2: killing node 2 (a third of the cluster); the driver's node drops its delivered copies")
	for _, r := range raw {
		if st, ok := c.Ctrl.GetTask(r.ID.Producer()); ok && st.Node != c.Node(0).ID() {
			c.Node(0).Store().Delete(r.ID)
		}
	}
	c.KillNode(2)
	lost := 0
	for _, o := range c.Ctrl.Objects() {
		if o.State == types.ObjectLost {
			lost++
		}
	}
	fmt.Printf("  control plane reports %d objects LOST\n", lost)

	// Phase 3: every value is still retrievable — lineage replay.
	fmt.Println("\nphase 3: reading every value back (replays happen transparently)")
	start := time.Now()
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			log.Fatalf("get %d: %v", i, err)
		}
		if v != i*i {
			log.Fatalf("value %d = %d, want %d", i, v, i*i)
		}
	}
	fmt.Printf("  18/18 values correct in %v\n", time.Since(start).Round(time.Millisecond))

	rawState, err := d.Get(ctx, actor.StateRef())
	if err != nil {
		log.Fatal(err)
	}
	sum, _ := codec.DecodeAs[int](rawState)
	fmt.Printf("  actor state reconstructed from its method lineage: %d (want 15)\n", sum)

	// Show the replay evidence from the event log (R7).
	replays := 0
	for _, ev := range c.Ctrl.Events() {
		if ev.Kind == "reconstruct" {
			replays++
		}
	}
	fmt.Printf("\nevent log recorded %d reconstruct events (R6 via the R7 tooling)\n", replays)
}
