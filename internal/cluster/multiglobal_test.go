package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// TestMultipleGlobalSchedulers exercises the architecture's "one or more
// global schedulers throughout the cluster" (Section 3.2): with several
// Global instances subscribed to the spill channel, every task is placed by
// every scheduler (the channel fans out), and deterministic task IDs plus
// exactly-once task-table insertion make the duplicate placements converge
// to a single execution per task.
func TestMultipleGlobalSchedulers(t *testing.T) {
	reg := core.NewRegistry()
	bump := core.Register1(reg, "bump", func(tc *core.TaskContext, x int) (int, error) {
		return x + 1, nil
	})
	c, err := New(Config{
		Nodes:            3,
		NodeResources:    types.CPU(2),
		Registry:         reg,
		SpillThreshold:   SpillThresholdOf(0), // everything goes global
		GlobalSchedulers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if len(c.Globals) != 3 {
		t.Fatalf("globals = %d", len(c.Globals))
	}
	d := c.Driver()
	var refs []core.Ref[int]
	for i := 0; i < 30; i++ {
		ref, err := bump.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatal(err)
		}
		if v != i+1 {
			t.Fatalf("bump(%d) = %d", i, v)
		}
	}
	// Every scheduler instance participated.
	for i, g := range c.Globals {
		if g.Placed() == 0 {
			t.Fatalf("global scheduler %d never placed a task", i)
		}
	}
	// Convergence: despite 3x placements, each task executed effectively
	// once — executions across nodes must not exceed submissions by more
	// than the benign CAS-race allowance (duplicate executions are safe but
	// should be rare).
	// A result is gettable once stored, just before its executor counts the
	// task executed, so the last count can trail the last Get.
	var executed int64
	waitFor(t, 5*time.Second, "30 executions for 30 tasks", func() bool {
		executed = 0
		for i := 0; i < c.NumNodes(); i++ {
			executed += c.Node(i).Executor().Executed()
		}
		return executed >= 30
	})
	if executed > 40 {
		t.Fatalf("%d executions for 30 tasks — dedupe not working", executed)
	}
}
