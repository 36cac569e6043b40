//go:build !race

package gcs_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestRecordBudget pins the size of the control plane to the live set: one
// node runs, reads and releases a hundred thousand no-op tasks, and the
// task and object tables end where they started — while it runs they hold
// a grace's worth of records, not the run's. (Before records had a
// lifetime, each of these tasks left 1 084 bytes in the tables for good.)
// Non-race like TestAllocBudget: under the race detector the loop alone
// takes most of a minute.
func TestRecordBudget(t *testing.T) {
	const tasks = 100_000
	reg := core.NewRegistry()
	noop := core.Register1(reg, "noop", func(tc *core.TaskContext, x int) (int, error) { return x, nil })
	c, err := cluster.New(cluster.Config{Nodes: 1, Registry: reg, DisableEventLog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	tasks0, objects0 := c.Ctrl.Records()
	var peak int64
	for i := 0; i < tasks; i++ {
		ref, err := noop.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := core.Get(ctx, d, ref); err != nil || v != i {
			t.Fatalf("task %d = %d, %v", i, v, err)
		}
		d.Release(ref.Ref)
		if i%1000 == 0 {
			n, _ := c.Ctrl.Records()
			peak = max(peak, n)
		}
	}
	if peak > tasks/5 {
		t.Errorf("the task table held %d records at once during a run of %d: it grows with the run, not with the live set", peak, tasks)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		n, o := c.Ctrl.Records()
		if n == tasks0 && o == objects0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d task and %d object records left after every task was released (started from %d and %d)", n, o, tasks0, objects0)
		}
		<-time.After(5 * time.Millisecond)
	}
	t.Logf("peak live task records %d over %d tasks", peak, tasks)
}
