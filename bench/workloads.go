package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/types"
)

// workload is one closed-loop scenario: one driver goroutine, one client,
// the next operation issued only after the previous one returned.
type workload struct {
	name string
	why  string
	// tasksPerOp converts operations into tasks for tasks_per_s and for the
	// per-op counters, which are per task on every workload.
	tasksPerOp int
	// warmup is the fixed operation count run before timing; caches, peer
	// connections and subscription streams come up there.
	warmup int
	// config is the cluster shape. Registry and DisableEventLog are filled
	// in by the harness; every field not named here stays at its zero
	// value, so a later change of a default shows up in the numbers.
	config cluster.Config
	// op builds the operation for one run.
	op func(e *env) (opFunc, error)
}

// env is what an operation runs against.
type env struct {
	ctx    context.Context
	c      *cluster.Cluster
	d      *core.Client
	seed   uint64
	traced bool // operations stamp their inner boundaries only when set
}

// opStamps are the harness-side instants of one operation (ns since the
// process epoch). start and end are always set; the inner boundaries and
// the submitted task IDs only on a traced run.
type opStamps struct {
	start, put, submitted, returned, end int64
	tasks                                []types.TaskID
}

// opFunc performs one operation, checks its output and fills s.
type opFunc func(s *opStamps) error

const (
	windowSize  = 200
	payloadSize = 1 << 20
	funcNoop    = "noop"
	funcXor     = "xor"
	xorKey      = 0x5a5a5a5a5a5a5a5a
)

// nullPayload is what a task that returns nil stores.
var nullPayload = codec.MustEncode(nil)

var gpuSliver = types.Resources{types.ResGPU: 0.001}

func twoNodes(node0CPU float64, hop time.Duration) cluster.Config {
	return cluster.Config{
		Nodes: 2,
		PerNodeResources: []types.Resources{
			types.CPU(node0CPU),
			{types.ResCPU: 4, types.ResGPU: 1},
		},
		HopLatency: hop,
	}
}

var workloads = []workload{
	{
		name:       "noop_serial",
		why:        "one local no-op task at a time: every local stage is on the critical path; transport, global scheduler and pull do nothing",
		tasksPerOp: 1,
		warmup:     2000,
		config:     cluster.Config{Nodes: 1},
		op: func(e *env) (opFunc, error) {
			return e.noopOp(core.Call{Function: funcNoop, Resources: types.CPU(0.0001)}), nil
		},
	},
	{
		name:       "noop_window",
		why:        "200 no-op tasks in flight over 4 nodes: bound by the driver's serial submit, spill-to-global, placement and allocation rate, not by per-task latency",
		tasksPerOp: windowSize,
		warmup:     10,
		config:     cluster.Config{Nodes: 4, NodeResources: types.CPU(4)},
		op:         (*env).windowOp,
	},
	{
		name:       "gpu_remote",
		why:        "one no-op task forced to the other node at 100us per hop: latency is the number of sequential messages, almost no CPU",
		tasksPerOp: 1,
		warmup:     200,
		config:     twoNodes(4, 100*time.Microsecond),
		op: func(e *env) (opFunc, error) {
			return e.noopOp(core.Call{Function: funcNoop, Resources: gpuSliver}), nil
		},
	},
	{
		name:       "data_chain",
		why:        "1 MiB put, remote xor task, 1 MiB result back, both released: the data plane's bytes, writes and deletes instead of tiny-object rate",
		tasksPerOp: 1,
		warmup:     200,
		config:     twoNodes(4, 0),
		op:         (*env).dataChainOp,
	},
	{
		name:       "rl_step",
		why:        "the paper's RL application at fine grain: dependent sim and act steps, a 16-ref fan-in to a GPU-only task on the other node, wait pipelining",
		tasksPerOp: rlTasksPerIter,
		warmup:     10,
		config:     twoNodes(16, 0),
		op:         (*env).rlOp,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// noopOp is Submit1 -> Get -> Release with one task in flight. The no-op
// returns nil, stored as the null payload; anything else is a failed
// operation.
func (e *env) noopOp(call core.Call) opFunc {
	return func(s *opStamps) error {
		s.start = now()
		ref, err := e.d.Submit1(call)
		if err != nil {
			return err
		}
		if e.traced {
			s.submitted = now()
			s.tasks = []types.TaskID{ref.Task}
		}
		data, err := e.d.Get(e.ctx, ref)
		if e.traced {
			s.returned = now()
		}
		e.d.Release(ref)
		s.end = now()
		if err != nil {
			return err
		}
		if !bytes.Equal(data, nullPayload) {
			return fmt.Errorf("noop returned % x, want the null payload", data)
		}
		return nil
	}
}

// windowOp submits a window of no-ops, waits for all of them and releases
// them. Wait never forces a transfer, so results are checked by completion,
// not by payload: a Get per task would add pulls the workload does not have.
func (e *env) windowOp() (opFunc, error) {
	call := core.Call{Function: funcNoop, Resources: types.CPU(0.0001)}
	refs := make([]core.ObjectRef, windowSize)
	return func(s *opStamps) error {
		s.start = now()
		for i := range refs {
			ref, err := e.d.Submit1(call)
			if err != nil {
				e.d.Release(refs[:i]...)
				return err
			}
			refs[i] = ref
		}
		if e.traced {
			s.submitted = now()
			s.tasks = make([]types.TaskID, len(refs))
			for i, r := range refs {
				s.tasks[i] = r.Task
			}
		}
		ready, pending, err := e.d.Wait(e.ctx, refs, len(refs), time.Minute)
		if e.traced {
			s.returned = now()
		}
		e.d.Release(refs...)
		s.end = now()
		if err != nil {
			return err
		}
		if len(ready) != len(refs) || len(pending) != 0 {
			return fmt.Errorf("window: %d ready, %d pending, want %d ready", len(ready), len(pending), len(refs))
		}
		return nil
	}, nil
}

// xorBytes is the data_chain task body and the harness's own reference. It
// works in place, a word at a time, so the task stays a small share of the
// operation it is there to make possible.
func xorBytes(b []byte) []byte {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:])^xorKey)
	}
	for ; i < len(b); i++ {
		b[i] ^= xorKey & 0xff
	}
	return b
}

func xorTask(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("xor expects 1 arg, got %d", len(args))
	}
	in, err := codec.DecodeAs[[]byte](args[0])
	if err != nil {
		return nil, err
	}
	return [][]byte{codec.MustEncode(xorBytes(in))}, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// xorChecksumFlip is XORed into the expected checksum; the smoke test sets
// it to prove the data_chain check is live.
var xorChecksumFlip uint32

// dataChainOp puts a seeded 1 MiB payload on node 0, runs xor on it on the
// GPU node, gets the 1 MiB result back and releases both objects. The
// result is checked against a checksum the harness computed itself, after
// the operation's clock has stopped.
func (e *env) dataChainOp() (opFunc, error) {
	payload := make([]byte, payloadSize)
	rand.New(rand.NewSource(int64(e.seed))).Read(payload)
	want := crc32.Checksum(xorBytes(bytes.Clone(payload)), castagnoli) ^ xorChecksumFlip
	return func(s *opStamps) error {
		s.start = now()
		in, err := e.d.Put(payload)
		if err != nil {
			return err
		}
		if e.traced {
			s.put = now()
		}
		out, err := e.d.Submit1(core.Call{
			Function:  funcXor,
			Args:      []types.Arg{core.RefOf(in)},
			Resources: gpuSliver,
		})
		if err != nil {
			e.d.Release(in)
			return err
		}
		if e.traced {
			s.submitted = now()
			s.tasks = []types.TaskID{out.Task}
		}
		data, err := e.d.Get(e.ctx, out)
		if e.traced {
			s.returned = now()
		}
		e.d.Release(in, out)
		s.end = now()
		if err != nil {
			return err
		}
		got, err := codec.DecodeAs[[]byte](data)
		if err != nil {
			return err
		}
		if sum := crc32.Checksum(got, castagnoli); len(got) != payloadSize || sum != want {
			return fmt.Errorf("xor result: %d bytes crc %08x, want %d bytes crc %08x", len(got), sum, payloadSize, want)
		}
		return nil
	}, nil
}

// rlConfig is the paper's section 4.2 application at fine grain. Its ideal
// critical path is StepsPerIter * (StepCost + EvalCost) = 7.5 ms; the rest
// of an iteration is system overhead.
func rlConfig(seed uint64) rl.Config {
	cfg := rl.Default()
	cfg.NumSims = 16
	cfg.StepsPerIter = 5
	cfg.Iters = 1
	cfg.StepCost = time.Millisecond
	cfg.EvalCost = 500 * time.Microsecond
	cfg.Seed = seed
	return cfg
}

const (
	rlTasksPerIter = 5 * (16 + 1) // StepsPerIter * (NumSims steps + 1 act)
	rlIdealMs      = 7.5
)

// rlOp is one rl.RunCore. Its learning statistics must equal the
// single-threaded rl.RunSerial on the same config, computed once here.
// RunCore keeps its refs to itself, so this workload releases nothing.
func (e *env) rlOp() (opFunc, error) {
	cfg := rlConfig(e.seed)
	want := rl.RunSerial(cfg).MeanReturnPerIter
	return func(s *opStamps) error {
		s.start = now()
		rep, err := rl.RunCore(e.ctx, cfg, e.d)
		s.end = now()
		if err != nil {
			return err
		}
		if len(rep.MeanReturnPerIter) != len(want) {
			return fmt.Errorf("rl: %d iterations reported, want %d", len(rep.MeanReturnPerIter), len(want))
		}
		for i, v := range rep.MeanReturnPerIter {
			if v != want[i] {
				return fmt.Errorf("rl: iteration %d mean return %v, serial reference %v", i, v, want[i])
			}
		}
		return nil
	}, nil
}

// newRegistry holds every function the workloads run. With a recorder each
// function is wrapped with entry/exit stamps.
func newRegistry(rec *recorder) *core.Registry {
	fns := core.NewRegistry()
	fns.Register(funcNoop, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{nil}, nil
	})
	fns.Register(funcXor, xorTask)
	rl.RegisterFuncs(fns)
	if rec == nil {
		return fns
	}
	reg := core.NewRegistry()
	for _, name := range fns.Names() {
		fn, _ := fns.Lookup(name)
		reg.Register(name, rec.wrap(fn))
	}
	return reg
}
