package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// TestMultipleGlobalSchedulers exercises the architecture's "one or more
// global schedulers throughout the cluster" (Section 3.2). Extra global
// schedulers are hot standbys, not a partition of the work (DESIGN.md §3.2):
// all of them race on the one spill channel, so together they place every
// task, but any one of them may place none. Deterministic task IDs and the
// QUEUED claim make duplicate placements converge to one execution per task,
// and stopping all but one global leaves the survivor placing everything.
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runTasks := func(from, n int) {
		t.Helper()
		var refs []core.Ref[int]
		for i := from; i < from+n; i++ {
			ref, err := bump.Remote(d, i)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
		for i, r := range refs {
			v, err := core.Get(ctx, d, r)
			if err != nil {
				t.Fatal(err)
			}
			if v != from+i+1 {
				t.Fatalf("bump(%d) = %d", from+i, v)
			}
		}
	}
	placed := func(gs ...int) int64 {
		var n int64
		for _, i := range gs {
			n += c.Globals[i].Placed()
		}
		return n
	}
	// A result is gettable once stored, just before its executor counts the
	// task executed and before the assignment returns to the global that
	// placed it, so both counts can trail the last Get.
	var executed int64
	waitExecuted := func(want int64) {
		t.Helper()
		waitFor(t, 5*time.Second, fmt.Sprintf("%d executions", want), func() bool {
			executed = 0
			for i := 0; i < c.NumNodes(); i++ {
				executed += c.Node(i).Executor().Executed()
			}
			return executed >= want
		})
	}

	runTasks(0, 30)
	waitFor(t, 5*time.Second, "30 placements across the globals", func() bool {
		return placed(0, 1, 2) >= 30
	})
	// Convergence: duplicate placements are benign, but duplicate
	// executions must stay within the CAS-race allowance.
	waitExecuted(30)
	if executed > 40 {
		t.Fatalf("%d executions for 30 tasks — dedupe not working", executed)
	}

	// Hot standby: with two globals stopped, the third places the next 30.
	c.Globals[1].Stop()
	c.Globals[2].Stop()
	before, stopped := placed(0), placed(1, 2)
	runTasks(30, 30)
	waitFor(t, 5*time.Second, "the surviving global to place 30 more", func() bool {
		return placed(0)-before >= 30
	})
	if got := placed(1, 2); got != stopped {
		t.Fatalf("stopped globals placed %d more tasks", got-stopped)
	}
	waitExecuted(60)
	if executed > 80 {
		t.Fatalf("%d executions for 60 tasks — dedupe not working", executed)
	}
}
