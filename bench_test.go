// Package repro's top-level benchmarks regenerate the paper's quantitative
// artifacts under `go test -bench` (the table-formatted equivalents live in
// cmd/raybench; see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
// for recorded results).
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/kv"
	"repro/internal/lifetime"
	"repro/internal/mcts"
	"repro/internal/objectstore"
	"repro/internal/rl"
	"repro/internal/rnn"
	"repro/internal/scheduler"
	"repro/internal/sensor"
	"repro/internal/transport"
	"repro/internal/types"
)

func noopRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.Register("noop", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{nil}, nil
	})
	return reg
}

func noopCall() core.Call {
	return core.Call{Function: "noop", Resources: types.CPU(0.0001)}
}

func mustCluster(b *testing.B, cfg cluster.Config) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Shutdown)
	return c
}

// --- E5: §4.2 RL comparison (paper: Spark 9x slower, ours 7x faster, 63x) ---

func rlBenchConfig() rl.Config {
	cfg := rl.Default()
	cfg.StepsPerIter = 5
	cfg.Iters = 1
	return cfg
}

func BenchmarkRLComparison(b *testing.B) {
	cfg := rlBenchConfig()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rl.RunSerial(cfg)
		}
	})
	b.Run("bsp-spark-standin", func(b *testing.B) {
		engine := bsp.New(bsp.Config{Executors: cfg.NumSims, DriverOverhead: bsp.DefaultDriverOverhead})
		for i := 0; i < b.N; i++ {
			rl.RunBSP(cfg, engine)
		}
	})
	b.Run("this-system", func(b *testing.B) {
		reg := core.NewRegistry()
		rl.RegisterFuncs(reg)
		c := mustCluster(b, cluster.Config{
			Nodes:           1,
			NodeResources:   types.Resources{types.ResCPU: float64(cfg.NumSims), types.ResGPU: 1},
			Registry:        reg,
			DisableEventLog: true,
		})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rl.RunCore(ctx, cfg, c.Driver()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E6: §4.2 wait-pipelining under stragglers ---

func BenchmarkWaitPipelining(b *testing.B) {
	cfg := rlBenchConfig()
	cfg.StragglerEvery = 4
	newCluster := func(b *testing.B) *cluster.Cluster {
		reg := core.NewRegistry()
		rl.RegisterFuncs(reg)
		return mustCluster(b, cluster.Config{
			Nodes:           1,
			NodeResources:   types.Resources{types.ResCPU: float64(cfg.NumSims), types.ResGPU: 1},
			Registry:        reg,
			DisableEventLog: true,
		})
	}
	b.Run("per-step-barrier", func(b *testing.B) {
		c := newCluster(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rl.RunCore(ctx, cfg, c.Driver()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wait-pipelined", func(b *testing.B) {
		c := newCluster(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rl.RunPipelined(ctx, cfg, c.Driver(), cfg.NumSims/4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7: §3.2.1 control-plane sharding + task throughput ---

func BenchmarkControlPlaneShards(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			store := kv.New(shards)
			const workers = 8
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/workers + 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := fmt.Sprintf("task:%d:%d", w, i)
						store.Put(key, []byte("x"))
						store.Get(key)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkOwnerTransferLatency measures the owner-death transfer protocol
// (E24, DESIGN.md §13) end to end: a burst of in-flight tasks is spread
// across the cluster, one non-driver node is crash-failed while it owns
// live tenures, and the timed window runs from the kill to every result
// being back in the driver's hands — death verdict, the global scheduler's
// transfer pass (follower scan, tenure-release CAS, re-place), successor
// claims, and re-execution. The transfers/op metric reports how many
// tenures the dead owner actually held, so ms/op can be read against real
// transfer work rather than an empty kill.
func BenchmarkOwnerTransferLatency(b *testing.B) {
	reg := core.NewRegistry()
	reg.Register("transfer.sleep", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		time.Sleep(10 * time.Millisecond)
		return [][]byte{nil}, nil
	})
	ctx := context.Background()
	var transfers int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cluster.New(cluster.Config{
			Nodes: 3, NodeResources: types.CPU(4), Registry: reg,
			SpillThreshold: cluster.SpillThresholdOf(0),
			GlobalPolicy:   &scheduler.RoundRobinPolicy{},
		})
		if err != nil {
			b.Fatal(err)
		}
		d := c.Driver()
		const tasks = 24
		refs := make([]core.ObjectRef, tasks)
		for k := 0; k < tasks; k++ {
			ref, err := d.Submit1(core.Call{Function: "transfer.sleep", Resources: types.CPU(1)})
			if err != nil {
				b.Fatal(err)
			}
			refs[k] = ref
		}
		time.Sleep(5 * time.Millisecond) // let tenures land on the victim
		b.StartTimer()
		c.KillNode(2)
		if _, _, err := d.Wait(ctx, refs, tasks, time.Minute); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, ev := range c.Ctrl.Events() {
			if ev.Kind == "owner-transfer" {
				transfers++
			}
		}
		c.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(transfers)/float64(b.N), "transfers/op")
}

// BenchmarkParkToScheduledLatency measures the dependency-resolution hot
// path (E23): a consumer parks on deps dependencies of which deps-1 are
// already ready and exactly one is a gated producer that finishes last, in
// both arms. The reported metric is the task-table-stamped latency from
// the gated producer's FINISHED to the consumer's SCHEDULED, so both arms
// time the same single wake chain (last dep ready → resolver → dispatch)
// and differ only in the dependency count the park edge has to book-keep:
// the borrow retains, the ledger flush, the resolver set, and the task
// record size. Per-dependency refcount round trips on either edge would
// show up as growth in the deps-16 arm; with the ledger-batched borrows
// the whole dependency set rides one flush, so the arms should be flat.
func BenchmarkParkToScheduledLatency(b *testing.B) {
	for _, deps := range []int{1, 16} {
		b.Run(fmt.Sprintf("deps-%d", deps), func(b *testing.B) {
			var mu sync.Mutex
			gate := make(chan struct{})
			reg := noopRegistry()
			reg.Register("gated", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
				mu.Lock()
				g := gate
				mu.Unlock()
				<-g
				return [][]byte{nil}, nil
			})
			c := mustCluster(b, cluster.Config{Nodes: 1, NodeResources: types.CPU(2), Registry: reg, DisableEventLog: true})
			d := c.Driver()
			ctx := context.Background()
			var resolveNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mu.Lock()
				gate = make(chan struct{})
				g := gate
				mu.Unlock()
				args := make([]types.Arg, deps)
				// deps-1 dependencies are ready before the consumer parks:
				// they are local, and only the gated one holds the task in
				// waiting.
				for j := 0; j < deps-1; j++ {
					ref, err := d.Submit1(core.Call{Function: "noop", Resources: types.CPU(0.0001)})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := d.Get(ctx, ref); err != nil {
						b.Fatal(err)
					}
					args[j] = types.RefArg(ref.ID)
				}
				gatedRef, err := d.Submit1(core.Call{Function: "gated", Resources: types.CPU(1)})
				if err != nil {
					b.Fatal(err)
				}
				args[deps-1] = types.RefArg(gatedRef.ID)
				consumer, err := d.Submit1(core.Call{Function: "noop", Resources: types.CPU(0.0001), Args: args})
				if err != nil {
					b.Fatal(err)
				}
				// Let the consumer park, its row watched, before the gate
				// opens, so the timed section is purely
				// last-dep-ready → scheduled → done.
				time.Sleep(2 * time.Millisecond)
				b.StartTimer()
				close(g)
				if _, err := d.Get(ctx, consumer); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Isolate the scheduler's resolve path from the producer's
				// own completion cost using the task-table stamps: gated
				// producer finished → consumer scheduled.
				ginfo, _ := c.Ctrl.GetObject(gatedRef.ID)
				gst, _ := c.Ctrl.GetTask(ginfo.Producer)
				cinfo, _ := c.Ctrl.GetObject(consumer.ID)
				if st, ok := c.Ctrl.GetTask(cinfo.Producer); ok {
					// Signed: the consumer can legitimately be scheduled
					// before the producer's FINISHED stamp lands (the
					// ready publication precedes the stamp), and clamping
					// would bias the mean.
					resolveNs += st.ScheduledNs - gst.FinishedNs
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(resolveNs)/float64(b.N), "park-to-scheduled-ns")
		})
	}
}

// --- E8: §3.2.2 hybrid vs central-only ablation ---

func BenchmarkAblationHybrid(b *testing.B) {
	benchScheduling(b, 1<<20) // local fast path effectively always
}

func BenchmarkAblationCentralOnly(b *testing.B) {
	benchScheduling(b, scheduler.SpillAlways)
}

func benchScheduling(b *testing.B, spill int) {
	c := mustCluster(b, cluster.Config{
		Nodes:           2,
		NodeResources:   types.CPU(8),
		Registry:        noopRegistry(),
		SpillThreshold:  &spill,
		HopLatency:      50 * time.Microsecond,
		DisableEventLog: true,
	})
	d := c.Driver()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := d.Submit1(noopCall())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Get(ctx, ref); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: §3.2.1 lineage reconstruction (R6) ---

func BenchmarkReconstruction(b *testing.B) {
	reg := core.NewRegistry()
	square := core.Register1(reg, "sq", func(tc *core.TaskContext, x int) (int, error) {
		return x * x, nil
	})
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cluster.New(cluster.Config{
			Nodes:          3,
			NodeResources:  types.CPU(2),
			Registry:       reg,
			SpillThreshold: cluster.SpillThresholdOf(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		d := c.Driver()
		const n = 12
		refs := make([]core.Ref[int], n)
		raw := make([]core.ObjectRef, n)
		for j := range refs {
			refs[j], err = square.Remote(d, j)
			if err != nil {
				b.Fatal(err)
			}
			raw[j] = refs[j].Untyped()
		}
		if _, _, err := d.Wait(ctx, raw, n, time.Minute); err != nil {
			b.Fatal(err)
		}
		c.KillNode(2)
		// Small results are delivered to the driver's node as they finish
		// (DESIGN.md §6.3). It gives those copies up here, or it would hold
		// all twelve values and the loop below would replay nothing.
		for _, r := range raw {
			if st, ok := c.Ctrl.GetTask(r.Task); ok && st.Node != c.Node(0).ID() {
				c.Node(0).Store().Delete(r.ID)
			}
		}
		b.StartTimer()
		for j, r := range refs {
			v, err := core.Get(ctx, d, r)
			if err != nil {
				b.Fatal(err)
			}
			if v != j*j {
				b.Fatalf("reconstructed %d != %d", v, j*j)
			}
		}
		b.StopTimer()
		c.Shutdown()
		b.StartTimer()
	}
}

// --- E10: Fig 2b MCTS (R3) ---

func BenchmarkMCTS(b *testing.B) {
	cfg := mcts.Default(7)
	cfg.Budget = 128
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mcts.SearchSerial(cfg)
		}
	})
	b.Run("parallel-dynamic", func(b *testing.B) {
		reg := core.NewRegistry()
		mcts.RegisterFuncs(reg)
		c := mustCluster(b, cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg, DisableEventLog: true})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mcts.Search(ctx, c.Driver(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E11: Fig 2c RNN graph (R4/R5) ---

func BenchmarkRNNGraph(b *testing.B) {
	cfg := rnn.Default(5)
	newCluster := func(b *testing.B) *cluster.Cluster {
		reg := core.NewRegistry()
		rnn.RegisterFuncs(reg)
		return mustCluster(b, cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg, DisableEventLog: true})
	}
	b.Run("dataflow", func(b *testing.B) {
		c := newCluster(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rnn.RunDataflow(ctx, c.Driver(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-step-barrier", func(b *testing.B) {
		c := newCluster(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rnn.RunBarriered(ctx, c.Driver(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E12: Fig 2a sensor fusion (R1/R5) ---

func BenchmarkSensorFusion(b *testing.B) {
	cfg := sensor.Default(3)
	cfg.Windows = 8
	reg := core.NewRegistry()
	sensor.RegisterFuncs(reg)
	c := mustCluster(b, cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg, DisableEventLog: true})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sensor.Run(ctx, c.Driver(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Latency.Percentile(99))/1e6, "p99-window-ms")
		}
	}
}

// --- E13: R7 event-log overhead ---

func BenchmarkEventLogOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"enabled", false}, {"disabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := mustCluster(b, cluster.Config{Nodes: 1, Registry: noopRegistry(), DisableEventLog: mode.disable})
			d := c.Driver()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, err := d.Submit1(noopCall())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.Get(ctx, ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14: lifetime spill/restore hot path ---

func BenchmarkSpillRestore(b *testing.B) {
	ctrl := gcs.NewStore(4)
	tier, err := lifetime.NewDiskSpiller(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const objSize = 768 << 10
	store := objectstore.New(types.NodeID(types.DeriveTaskID(types.NilTaskID, 1)), ctrl, 1<<20)
	store.SetSpillTier(tier)
	store.SetRefChecker(func(types.ObjectID) bool { return true })
	x := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 2), 0)
	y := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 3), 0)
	payload := make([]byte, objSize)
	if err := store.Put(x, payload); err != nil {
		b.Fatal(err)
	}
	if err := store.Put(y, payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(objSize)
	b.ResetTimer()
	// x and y cannot coexist in memory: each Get restores one and spills
	// the other — one full spill+restore cycle per iteration.
	for i := 0; i < b.N; i++ {
		id := x
		if i%2 == 1 {
			id = y
		}
		if _, ok := store.Get(id); !ok {
			b.Fatal("object lost during spill cycling")
		}
	}
}

// --- E15: chunked pull vs single-shot transfer ---

func BenchmarkChunkedPull(b *testing.B) {
	const objSize = 64 << 20
	run := func(b *testing.B, peers int, cfg lifetime.PullConfig) {
		ctrl := gcs.NewStore(4)
		// 100µs hop latency + 1 GB/s per-stream bandwidth: the regime where
		// parallel chunk streams beat one serial whole-object transfer.
		nw := transport.NewInprocBandwidth(100*time.Microsecond, 1<<30)
		payload := make([]byte, objSize)
		addrs := make(map[types.NodeID]string)
		var locs []types.NodeID
		id := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 7), 0)
		for i := 0; i < peers; i++ {
			src := objectstore.New(types.NodeID(types.DeriveTaskID(types.NilTaskID, uint64(10+i))), ctrl, 0)
			srv := transport.NewServer()
			objectstore.RegisterPullHandler(srv, src)
			addr := fmt.Sprintf("src-%d", i)
			if _, err := nw.Listen(addr, srv); err != nil {
				b.Fatal(err)
			}
			if err := src.Put(id, payload); err != nil {
				b.Fatal(err)
			}
			addrs[src.Node()] = addr
			locs = append(locs, src.Node())
		}
		dst := objectstore.New(types.NodeID(types.DeriveTaskID(types.NilTaskID, 9)), ctrl, 0)
		pm := lifetime.NewPullManager(dst, ctrl, nw, func(n types.NodeID) (string, bool) {
			a, ok := addrs[n]
			return a, ok
		}, cfg)
		defer pm.Close()
		ctx := context.Background()
		b.SetBytes(objSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pm.Fetch(ctx, id, locs); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			dst.Delete(id)
			b.StartTimer()
		}
	}
	b.Run("single-shot", func(b *testing.B) {
		run(b, 1, lifetime.PullConfig{ChunkSize: objSize + 1})
	})
	b.Run("chunked-1peer", func(b *testing.B) {
		run(b, 1, lifetime.PullConfig{ChunkSize: 4 << 20})
	})
	b.Run("chunked-2peer", func(b *testing.B) {
		run(b, 2, lifetime.PullConfig{ChunkSize: 4 << 20})
	})
}
