package gcs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/types"
)

// The aliasing discipline of table.go, pinned: whatever a read returns is
// the caller's to ruin. Both tests fail on a table that hands out its own
// slices, maps or rings.

// populate fills a store with one record per table in which every slice,
// map and ring is non-empty.
func populate(s *Store) (task types.TaskID, obj types.ObjectID, node types.NodeID) {
	node, other := testNodeID(1), testNodeID(2)
	s.RegisterNode(types.NodeInfo{ID: node, Addr: "a", Total: types.GPU(4, 1)})
	s.Heartbeat(node, 3, types.GPU(2, 1), types.StoreStats{Objects: 1})
	s.CASNodeStateOp(node, []types.NodeState{types.NodeActive}, types.NodeDraining, 41)

	task = testTaskID(7)
	s.AddTask(types.TaskState{
		Spec: types.TaskSpec{
			ID: task, Function: "f", NumReturns: 1, Resources: types.CPU(1),
			Args: []types.Arg{types.ValueArg([]byte("inline")), types.RefArg(testObjectID(9))},
		},
		Status: types.TaskPending, Node: node, Owner: node,
	})
	s.ModifyTaskStates(node, []types.TaskStateDelta{{ID: task, Owner: node, Seq: 1, Status: types.TaskRunning}}, 42)

	obj = testObjectID(8)
	s.EnsureObject(obj, task)
	s.AddObjectLocation(obj, node, 64)
	s.AddObjectLocation(obj, other, 64)
	s.MarkObjectSpilled(obj, other, true)
	s.ModifyObjectRefCounts(node, map[types.ObjectID]int64{obj: 2}, 43)
	return task, obj, node
}

func scribbleIDs(ids []types.NodeID) {
	ids = ids[:cap(ids)] // an in-place append would land here
	for i := range ids {
		ids[i][1]++ // never idempotent: a listing scribbled twice differs twice
	}
}

func scribbleRing(r types.OpRing) {
	r = r[:cap(r)]
	for i := range r {
		r[i]++
	}
}

func scribbleResources(r types.Resources) {
	for k := range r {
		r[k]--
	}
	r["scribble"]--
}

func scribbleTask(st *types.TaskState) {
	args := st.Spec.Args[:cap(st.Spec.Args)]
	for i := range args {
		for j := range args[i].Value {
			args[i].Value[j] ^= 0xFF
		}
		args[i].Ref[1]++
	}
	scribbleResources(st.Spec.Resources)
	scribbleRing(st.MutOps)
}

func scribbleObject(o *types.ObjectInfo) {
	scribbleIDs(o.Locations)
	scribbleIDs(o.SpilledOn)
	scribbleRing(o.RefOps)
	for k := range o.Holders {
		o.Holders[k]--
	}
	o.Holders[testNodeID(0xEE)]--
}

func scribbleNode(n *types.NodeInfo) {
	scribbleResources(n.Total)
	scribbleResources(n.Available)
	scribbleRing(n.MutOps)
}

// unharmed reads a record (or a listing), ruins every slice, map and ring
// of what it got, and requires a second read to encode to the same bytes.
func unharmed[V any](t *testing.T, name string, read func() []V, scribble func(*V)) {
	t.Helper()
	encode := func(vs []V) (out []byte) {
		for i := range vs {
			out = append(out, codec.MustEncode(&vs[i])...)
		}
		return out
	}
	got := read()
	if len(got) == 0 {
		t.Fatalf("%s returned nothing", name)
	}
	want := encode(got)
	for i := range got {
		scribble(&got[i])
	}
	if again := encode(read()); !bytes.Equal(want, again) {
		t.Errorf("%s: scribbling over the returned value changed the table's record", name)
	}
}

func TestReadsDoNotAliasTable(t *testing.T) {
	s := NewStore(4)
	task, obj, node := populate(s)

	unharmed(t, "GetTask", func() []types.TaskState { return single(s.GetTask(task)) }, scribbleTask)
	unharmed(t, "Tasks", s.Tasks, scribbleTask)
	unharmed(t, "ScanTasks", func() []types.TaskState {
		sts, _ := s.ScanTasks(TaskFilter{Owner: node})
		return sts
	}, scribbleTask)
	unharmed(t, "GetObject", func() []types.ObjectInfo { return single(s.GetObject(obj)) }, scribbleObject)
	unharmed(t, "Objects", s.Objects, scribbleObject)
	unharmed(t, "GetNode", func() []types.NodeInfo { return single(s.GetNode(node)) }, scribbleNode)
	unharmed(t, "Nodes", s.Nodes, scribbleNode)

	// And the way in: what a caller passed stays the caller's.
	spec := types.TaskSpec{ID: testTaskID(70), Function: "g", Resources: types.CPU(1), Args: []types.Arg{types.ValueArg([]byte("mine"))}}
	s.AddTask(types.TaskState{Spec: spec})
	unharmed(t, "AddTask's argument", func() []types.TaskState { return single(s.GetTask(spec.ID)) }, func(*types.TaskState) {
		spec.Args[0].Value[0] = 'X'
		spec.Resources[types.ResCPU] = 99
	})
}

// single is a one-record read as a listing (empty when the record is missing).
func single[V any](v V, ok bool) []V {
	if !ok {
		return nil
	}
	return []V{v}
}

// TestReadersRaceWriters: under -race, readers walking what reads returned
// while writers mutate the same records in place.
func TestReadersRaceWriters(t *testing.T) {
	s := NewStore(2)
	s.SetEventLogging(false)
	task, obj, node := populate(s)
	const rounds = 2000
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}
	flaky := testNodeID(3)
	run(func(int) { s.AddObjectLocation(obj, flaky, 64) })
	run(func(int) { s.RemoveObjectLocation(obj, flaky) })
	run(func(i int) {
		s.ModifyObjectRefCounts(flaky, map[types.ObjectID]int64{obj: int64(1 - 2*(i%2))}, uint64(1000+i))
	})
	run(func(i int) {
		s.ModifyTaskStates(node, []types.TaskStateDelta{{ID: task, Owner: node, Seq: uint64(2 + i), Status: types.TaskRunning}}, uint64(5000+i))
	})
	var sink atomic.Int64 // keeps the walks from being optimised away
	walk := func(o types.ObjectInfo) {
		n := len(o.RefOps)
		for _, loc := range o.Locations {
			n += int(loc[0])
		}
		for _, h := range o.Holders {
			n += int(h)
		}
		sink.Add(int64(n))
	}
	run(func(int) {
		if o, ok := s.GetObject(obj); ok {
			walk(o)
		}
	})
	run(func(int) {
		for _, o := range s.Objects() {
			walk(o)
		}
	})
	run(func(int) {
		if st, ok := s.GetTask(task); ok {
			for _, op := range st.MutOps {
				sink.Add(int64(op))
			}
		}
	})
	wg.Wait()
}
