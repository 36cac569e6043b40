//go:build !race

package gcs

import (
	"testing"

	"repro/internal/types"
)

// TestAllocBudget pins what one call of each per-task control-plane
// operation may allocate on the in-memory store, at half of what the same
// call cost while records were kept encoded under hex-string keys (8, 12,
// 25, 16 and 8 at 9555cf5; 3, 3, 1, 3 and 4 when this was written). The race detector changes allocation counts,
// so CI runs this file in its own non-race invocation.
func TestAllocBudget(t *testing.T) {
	const n = 2000
	s := NewStore(8)
	s.SetEventLogging(false)
	node := testNodeID(1)
	res := types.CPU(0.0001)
	tasks := make([]types.TaskState, n+1) // AllocsPerRun makes one warm-up call
	objs := make([]types.ObjectID, n+1)
	for i := range tasks {
		id := types.DeriveTaskID(types.NilTaskID, uint64(i))
		tasks[i] = types.TaskState{
			Spec:   types.TaskSpec{ID: id, Function: "noop", NumReturns: 1, Resources: res},
			Status: types.TaskPending, Node: node, Owner: node,
		}
		objs[i] = types.ObjectIDForReturn(id, 0)
	}
	delta := make([]types.TaskStateDelta, 1)
	refs := make(map[types.ObjectID]int64, 1)

	i := 0
	for _, op := range []struct {
		name   string
		budget float64
		call   func(i int)
	}{
		{"AddTask", 4, func(i int) { s.AddTask(tasks[i]) }},
		{"AddObjectLocation", 6, func(i int) { s.AddObjectLocation(objs[i], node, 64) }},
		{"ModifyTaskStates", 12, func(i int) {
			delta[0] = types.TaskStateDelta{ID: tasks[i].Spec.ID, Owner: node, Seq: 3, Status: types.TaskFinished, Node: node}
			s.ModifyTaskStates(node, delta, uint64(i+1))
		}},
		{"ModifyObjectRefCounts", 8, func(i int) {
			clear(refs)
			refs[objs[i]] = 1
			s.ModifyObjectRefCounts(node, refs, uint64(i+1))
		}},
		{"GetObject", 4, func(i int) {
			if _, ok := s.GetObject(objs[i]); !ok {
				t.Fatal("object record missing")
			}
		}},
	} {
		i = 0
		got := testing.AllocsPerRun(n, func() { op.call(i); i++ })
		t.Logf("%-22s %4.1f allocs/call (budget %v)", op.name, got, op.budget)
		if got > op.budget {
			t.Errorf("%s allocates %.1f times a call, budget %v", op.name, got, op.budget)
		}
	}
}
