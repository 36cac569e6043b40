package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/types"
)

// TestFanInDagRecords runs a fixed fan-in DAG (8 leaves combined pairwise
// down to a root) on a 2-node cluster and checks everything observable
// about it: every value, every return object's lineage producer edge, every
// task's FINISHED record, and zero refcounts once the driver releases.
func TestFanInDagRecords(t *testing.T) {
	reg := core.NewRegistry()
	leaf := core.Register1(reg, "dag.leaf", func(tc *core.TaskContext, x int) (int, error) {
		return 3*x + 1, nil
	})
	comb := core.Register2(reg, "dag.comb", func(tc *core.TaskContext, a, b int) (int, error) {
		return a + b, nil
	})
	c, err := New(Config{Nodes: 2, NodeResources: types.CPU(2), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := core.NewClientWithRoot(c.Node(0), types.DeriveTaskID(types.NilTaskID, 4242))

	level := make([]core.Ref[int], 0, 8)
	vals := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		r, err := leaf.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		level = append(level, r)
		vals = append(vals, 3*i+1)
	}
	refs := append([]core.Ref[int]{}, level...)
	want := append([]int{}, vals...)
	for len(level) > 1 {
		next := make([]core.Ref[int], 0, len(level)/2)
		nextVals := make([]int, 0, len(level)/2)
		for i := 0; i+1 < len(level); i += 2 {
			r, err := comb.RemoteRefs(d, level[i], level[i+1])
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, r)
			nextVals = append(nextVals, vals[i]+vals[i+1])
		}
		level, vals = next, nextVals
		refs = append(refs, level...)
		want = append(want, vals...)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatal(err)
		}
		if v != want[i] {
			t.Fatalf("ref %d = %d, want %d", i, v, want[i])
		}
	}
	// Lineage and terminal records, read before release can retire them.
	// Producer edges and terminal stamps ride the owner ledger's batched
	// async flush (DESIGN.md §13), so settle-then-read, like the
	// conservation checkers.
	settled := func() bool {
		for _, r := range refs {
			or := r.Untyped()
			info, ok := c.API.GetObject(or.ID)
			if !ok || info.Producer.IsNil() {
				return false
			}
			rec, ok := c.API.GetTask(or.Task)
			if !ok || !rec.Status.Terminal() {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(20 * time.Second); !settled(); {
		if time.Now().After(deadline) {
			t.Fatal("lineage/terminal records never settled in the control plane")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range refs {
		or := r.Untyped()
		if info, _ := c.API.GetObject(or.ID); info.Producer != or.Task {
			t.Fatalf("object %v producer = %v, want %v", or.ID, info.Producer, or.Task)
		}
		if rec, _ := c.API.GetTask(or.Task); rec.Status != types.TaskFinished {
			t.Fatalf("task %v terminal status = %v, want FINISHED", or.Task, rec.Status)
		}
	}
	// Reference conservation: dropping the driver's refs drains every
	// refcount to zero.
	untyped := make([]core.ObjectRef, len(refs))
	for i, r := range refs {
		untyped[i] = r.Untyped()
	}
	d.Release(untyped...)
	chaostest.New(c.API).AwaitZeroRefcounts(t, 20*time.Second)
}
