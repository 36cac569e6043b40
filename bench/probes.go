package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/jobs"
	"repro/internal/kv"
	"repro/internal/lifetime"
	"repro/internal/objectstore"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

// A probe drives one layer's exported entry points alone, at the shapes the
// workloads produce, so the content of a stage can be attributed to a layer.
// Counts are fixed: both sides of a comparison do identical work.
type probe struct {
	name  string // ends in _ns or _us, the unit it is reported in
	iters int
	// setup returns the timed body (called with 0..n-1 for n = rounds*iters
	// calls in all) and an optional cleanup.
	setup func(n int) (body func(i int), cleanup func())
}

// probeRounds timed rounds per probe; the median round is reported.
const probeRounds = 5

func probeID(i int) types.TaskID { return types.DeriveTaskID(types.NilTaskID, uint64(i)+1) }
func probeObj(i int) types.ObjectID {
	return types.ObjectIDForReturn(probeID(i), 0)
}
func probeNode(i int) types.NodeID { return types.NodeID(probeID(1<<40 + i)) }

// noopSpec is the task shape noop_serial submits.
func noopSpec(i int) types.TaskSpec {
	return types.TaskSpec{
		ID: probeID(i), Function: funcNoop, NumReturns: 1,
		Resources: types.CPU(0.0001), Parent: probeID(1 << 41), SubmitIndex: uint64(i),
	}
}

func quietStore() *gcs.Store {
	s := gcs.NewStore(8)
	s.SetEventLogging(false)
	return s
}

// callProbe times one echo request/response over an in-process network.
func callProbe(hop time.Duration) func(int) (func(int), func()) {
	return func(int) (func(int), func()) {
		nw := transport.NewInproc(hop)
		srv := transport.NewServer()
		srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
		ln, err := nw.Listen("echo", srv)
		if err != nil {
			panic(err)
		}
		cl, err := nw.Dial("echo")
		if err != nil {
			panic(err)
		}
		payload := make([]byte, 64)
		return func(int) {
				if _, err := cl.Call("echo", payload); err != nil {
					panic(err)
				}
			}, func() {
				cl.Close()
				ln.Close()
			}
	}
}

// storeProbe times fn on a store pre-filled (when fill) with n objects of
// the given size.
func storeProbe(size int, fill bool, fn func(s *objectstore.Store, id types.ObjectID, data []byte)) func(int) (func(int), func()) {
	return func(n int) (func(int), func()) {
		s := objectstore.New(probeNode(0), quietStore(), 0)
		data := make([]byte, size)
		if fill {
			for i := 0; i < n; i++ {
				if err := s.Put(probeObj(i), data); err != nil {
					panic(err)
				}
			}
		}
		return func(i int) { fn(s, probeObj(i), data) }, nil
	}
}

func mustPut(s *objectstore.Store, id types.ObjectID, data []byte) {
	if err := s.Put(id, data); err != nil {
		panic(err)
	}
}

func mustGet(s *objectstore.Store, id types.ObjectID, _ []byte) {
	if _, ok := s.Get(id); !ok {
		panic("probe: object missing")
	}
}

var probes = []probe{
	{"codec.taskstate_encode_ns", 20000, func(int) (func(int), func()) {
		st := types.TaskState{Spec: noopSpec(0), Status: types.TaskPending, Node: probeNode(0), Owner: probeNode(0)}
		return func(int) { codec.MustEncode(st) }, nil
	}},
	{"codec.taskstate_decode_ns", 20000, func(int) (func(int), func()) {
		raw := codec.MustEncode(types.TaskState{Spec: noopSpec(0), Status: types.TaskPending, Node: probeNode(0), Owner: probeNode(0)})
		return func(int) {
			if _, err := codec.DecodeAs[types.TaskState](raw); err != nil {
				panic(err)
			}
		}, nil
	}},
	{"codec.val_encode_ns", 20000, func(int) (func(int), func()) {
		return func(i int) { core.Val(i) }, nil
	}},

	{"gcs.addtask_ns", 20000, func(int) (func(int), func()) {
		s := quietStore()
		return func(i int) {
			s.AddTask(types.TaskState{Spec: noopSpec(i), Status: types.TaskPending, Node: probeNode(0), Owner: probeNode(0)})
		}, nil
	}},
	// A ledger flush arrives as one call carrying 256 deltas; every 256th
	// iteration makes that call, so the figure is per delta.
	{"gcs.modify_states_ns_per_delta", 10240, func(n int) (func(int), func()) {
		const batch = 256
		s := quietStore()
		deltas := make([]types.TaskStateDelta, n)
		for i := range deltas {
			s.AddTask(types.TaskState{Spec: noopSpec(i), Status: types.TaskPending, Node: probeNode(0), Owner: probeNode(0)})
			deltas[i] = types.TaskStateDelta{ID: probeID(i), Owner: probeNode(0), Seq: 3, Status: types.TaskFinished, Node: probeNode(0)}
		}
		return func(i int) {
			if i%batch == batch-1 {
				s.ModifyTaskStates(probeNode(0), deltas[i+1-batch:i+1], uint64(i))
			}
		}, nil
	}},
	{"gcs.add_location_ns", 20000, func(int) (func(int), func()) {
		s := quietStore()
		return func(i int) { s.AddObjectLocation(probeObj(i), probeNode(0), 64) }, nil
	}},
	{"gcs.get_object_ns", 20000, func(n int) (func(int), func()) {
		s := quietStore()
		for i := 0; i < n; i++ {
			s.AddObjectLocation(probeObj(i), probeNode(0), 64)
		}
		return func(i int) {
			if _, ok := s.GetObject(probeObj(i)); !ok {
				panic("probe: object record missing")
			}
		}, nil
	}},

	{"kv.put_ns", 50000, func(n int) (func(int), func()) {
		s := kv.New(8)
		keys := probeKeys(n)
		return func(i int) { s.Put(keys[i], []byte("x")) }, nil
	}},
	{"kv.get_ns", 50000, func(n int) (func(int), func()) {
		s := kv.New(8)
		keys := probeKeys(n)
		for _, k := range keys {
			s.Put(k, []byte("x"))
		}
		return func(i int) { s.Get(keys[i]) }, nil
	}},

	// What the owner ledger costs one task: adopt, the three transitions a
	// task makes, and its share of the batched flush to the control plane.
	{"lifetime.ledger_task_ns", 20000, func(n int) (func(int), func()) {
		ctrl := quietStore()
		for i := 0; i < n; i++ {
			ctrl.AddTask(types.TaskState{Spec: noopSpec(i), Status: types.TaskPending, Node: probeNode(0), Owner: probeNode(0)})
		}
		led := lifetime.NewTaskLedger(ctrl)
		led.SetNode(probeNode(0))
		led.Start() // batched mode, as a node runs it
		return func(i int) {
			id := probeID(i)
			led.Adopt(id, 0, types.TaskPending)
			led.Transition(id, types.TaskQueued, types.WorkerID{}, "")
			led.Transition(id, types.TaskRunning, types.WorkerID{}, "")
			led.Transition(id, types.TaskFinished, types.WorkerID{}, "")
			if i%256 == 255 {
				led.Flush()
			}
		}, led.Stop
	}},
	{"lifetime.retain_release_ns", 20000, func(int) (func(int), func()) {
		tr := lifetime.NewTracker(quietStore())
		tr.SetNode(probeNode(0))
		tr.Start()
		return func(i int) {
			tr.Retain(probeObj(i))
			tr.Release(probeObj(i))
		}, tr.Stop
	}},
	{"lifetime.fetch_1mib_us", 200, func(int) (func(int), func()) {
		ctrl := quietStore()
		nw := transport.NewInproc(0)
		src := objectstore.New(probeNode(1), ctrl, 0)
		srv := transport.NewServer()
		objectstore.RegisterPullHandler(srv, src)
		ln, err := nw.Listen("src", srv)
		if err != nil {
			panic(err)
		}
		id := probeObj(0)
		mustPut(src, id, make([]byte, payloadSize))
		dst := objectstore.New(probeNode(2), ctrl, 0)
		pm := lifetime.NewPullManager(dst, ctrl, nw, func(types.NodeID) (string, bool) { return "src", true }, lifetime.PullConfig{})
		locs := []types.NodeID{src.Node()}
		return func(int) {
				if err := pm.Fetch(context.Background(), id, locs); err != nil {
					panic(err)
				}
				dst.Delete(id)
			}, func() {
				pm.Close()
				ln.Close()
			}
	}},

	// The dispatch tier alone: Enqueue of a pre-admitted tiny task to the
	// stub executor's completion, as an executor retry re-enters it.
	{"scheduler.dispatch_ns", 20000, func(n int) (func(int), func()) {
		ctrl := quietStore()
		nid := probeNode(0)
		ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "probe", Total: types.CPU(4)})
		led := lifetime.NewTaskLedger(ctrl)
		led.SetNode(nid)
		led.Start()
		l := scheduler.NewLocal(scheduler.LocalConfig{
			Node: nid, Total: types.CPU(4), Ctrl: ctrl, Store: objectstore.New(nid, ctrl, 0),
			Ledger: led, SpillThreshold: scheduler.SpillNever,
		})
		done := make(chan struct{}, 1)
		l.SetExec(func(context.Context, types.TaskSpec, [][]byte) { done <- struct{}{} })
		l.Start()
		specs := make([]types.TaskSpec, n)
		for i := range specs {
			specs[i] = noopSpec(i)
			ctrl.AddTask(types.TaskState{Spec: specs[i], Status: types.TaskPending, Node: nid, Owner: nid})
			led.Adopt(specs[i].ID, 0, types.TaskPending)
		}
		return func(i int) {
				if err := l.Enqueue(specs[i]); err != nil {
					panic(err)
				}
				<-done
			}, func() {
				l.Stop()
				led.Stop()
			}
	}},

	{"objectstore.put_64b_ns", 20000, storeProbe(64, false, mustPut)},
	{"objectstore.get_64b_ns", 20000, storeProbe(64, true, mustGet)},
	{"objectstore.delete_ns", 20000, storeProbe(64, true, func(s *objectstore.Store, id types.ObjectID, _ []byte) { s.Delete(id) })},
	{"objectstore.put_1mib_us", 200, storeProbe(payloadSize, false, func(s *objectstore.Store, id types.ObjectID, data []byte) {
		mustPut(s, id, data)
		s.Delete(id) // a put keeps the caller's slice, so the pair stays far below a copy's cost
	})},
	{"objectstore.get_1mib_ns", 20000, func(int) (func(int), func()) {
		s := objectstore.New(probeNode(0), quietStore(), 0)
		mustPut(s, probeObj(0), make([]byte, payloadSize))
		return func(int) { mustGet(s, probeObj(0), nil) }, nil
	}},

	{"transport.call_ns", 20000, callProbe(0)},
	// What one request/response really costs at the hop latency gpu_remote
	// runs at, time.Sleep overshoot included: the unit gpu_remote is read in.
	{"transport.call_hop100_us", 200, callProbe(100 * time.Microsecond)},

	{"jobs.fairqueue_push_pop_ns", 50000, func(n int) (func(int), func()) {
		q := jobs.NewFairQueue(nil)
		specs := make([]types.TaskSpec, n)
		for i := range specs {
			specs[i] = noopSpec(i)
			specs[i].Job = types.JobID(probeID(1<<42 + i%4))
		}
		return func(i int) {
			q.Push(specs[i])
			if _, ok := q.Pop(); !ok {
				panic("probe: fair queue empty after push")
			}
		}, nil
	}},
	{"jobs.admit_ns", 50000, func(int) (func(int), func()) {
		ctrl := quietStore()
		job := types.JobID(probeID(1 << 42))
		ctrl.CreateJob(types.JobSpec{ID: job, Name: "probe"})
		adm := jobs.NewAdmission(ctrl, time.Hour)
		return func(int) {
			if err := adm.Admit(job); err != nil {
				panic(err)
			}
		}, nil
	}},
}

func probeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("task:%016x", i)
	}
	return keys
}

// runProbes runs every probe and returns <name> (median round, per
// iteration) and <name minus unit>_allocs (allocations per iteration).
func runProbes(scale float64) map[string]metric {
	out := map[string]metric{}
	for _, p := range probes {
		iters := max(1, int(math.Ceil(float64(p.iters)*scale)))
		body, cleanup := p.setup(iters * (probeRounds + 1))
		runtime.GC()
		next := 0
		round := func() (ns float64, allocs float64) {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			t0 := now()
			for end := next + iters; next < end; next++ {
				body(next)
			}
			t1 := now()
			runtime.ReadMemStats(&b)
			return float64(t1-t0) / float64(iters), float64(b.Mallocs-a.Mallocs) / float64(iters)
		}
		round() // warm-up round
		var times, allocs []float64
		for i := 0; i < probeRounds; i++ {
			t, a := round()
			times, allocs = append(times, t), append(allocs, a)
		}
		if cleanup != nil {
			cleanup()
		}
		base, _, isNs := strings.Cut(p.name, "_ns")
		unit, div := "ns", 1.0
		if !isNs {
			base, _, _ = strings.Cut(p.name, "_us")
			unit, div = "us", 1e3
		}
		out[p.name] = metric{median(times) / div, unit}
		out[base+"_allocs"] = metric{median(allocs), "count"}
	}
	return out
}
