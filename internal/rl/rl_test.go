package rl

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/cluster"
	"repro/internal/codec/codectest"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/types"
)

func testConfig() Config {
	cfg := Default()
	cfg.NumSims = 4
	cfg.StepsPerIter = 3
	cfg.Iters = 2
	cfg.StepCost = time.Millisecond
	cfg.EvalCost = 500 * time.Microsecond
	return cfg
}

func testCluster(t *testing.T, cfg Config) *cluster.Cluster {
	t.Helper()
	reg := core.NewRegistry()
	RegisterFuncs(reg)
	c, err := cluster.New(cluster.Config{
		Nodes:         1,
		NodeResources: types.Resources{types.ResCPU: float64(cfg.NumSims), types.ResGPU: 1},
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestSerialProducesLearningSignal(t *testing.T) {
	cfg := testConfig()
	rep := RunSerial(cfg)
	if rep.TotalSteps != cfg.NumSims*cfg.StepsPerIter*cfg.Iters {
		t.Fatalf("TotalSteps = %d", rep.TotalSteps)
	}
	if len(rep.MeanReturnPerIter) != cfg.Iters {
		t.Fatalf("iters recorded = %d", len(rep.MeanReturnPerIter))
	}
	if rep.FinalReturn() <= 0 {
		t.Fatalf("no reward signal: %v", rep.MeanReturnPerIter)
	}
}

func TestSerialDeterministic(t *testing.T) {
	cfg := testConfig()
	a, b := RunSerial(cfg), RunSerial(cfg)
	if !almostEqual(a.MeanReturnPerIter, b.MeanReturnPerIter) {
		t.Fatalf("same seed diverged: %v vs %v", a.MeanReturnPerIter, b.MeanReturnPerIter)
	}
}

func TestBSPMatchesSerial(t *testing.T) {
	cfg := testConfig()
	serial := RunSerial(cfg)
	engine := bsp.New(bsp.Config{Executors: cfg.NumSims, DriverOverhead: 0})
	bspRep := RunBSP(cfg, engine)
	if !almostEqual(serial.MeanReturnPerIter, bspRep.MeanReturnPerIter) {
		t.Fatalf("BSP learning stats diverge: %v vs %v", bspRep.MeanReturnPerIter, serial.MeanReturnPerIter)
	}
	if engine.TasksRun() != int64(cfg.NumSims*cfg.StepsPerIter*cfg.Iters) {
		t.Fatalf("BSP ran %d tasks", engine.TasksRun())
	}
	if engine.StagesRun() != int64(cfg.StepsPerIter*cfg.Iters) {
		t.Fatalf("BSP ran %d stages", engine.StagesRun())
	}
	if engine.BytesShipped() == 0 {
		t.Fatal("driver shipped no bytes — serialization path dead")
	}
}

func TestCoreMatchesSerial(t *testing.T) {
	cfg := testConfig()
	serial := RunSerial(cfg)
	c := testCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunCore(ctx, cfg, c.Driver())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(serial.MeanReturnPerIter, rep.MeanReturnPerIter) {
		t.Fatalf("core learning stats diverge: %v vs %v", rep.MeanReturnPerIter, serial.MeanReturnPerIter)
	}
}

func TestPipelinedMatchesSerial(t *testing.T) {
	cfg := testConfig()
	serial := RunSerial(cfg)
	c := testCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunPipelined(ctx, cfg, c.Driver(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(serial.MeanReturnPerIter, rep.MeanReturnPerIter) {
		t.Fatalf("pipelined learning stats diverge: %v vs %v", rep.MeanReturnPerIter, serial.MeanReturnPerIter)
	}
}

func TestPipelinedWithStragglersMatchesSerial(t *testing.T) {
	cfg := testConfig()
	cfg.StragglerEvery = 2
	cfg.StragglerFactor = 3
	serial := RunSerial(cfg)
	c := testCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunPipelined(ctx, cfg, c.Driver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(serial.MeanReturnPerIter, rep.MeanReturnPerIter) {
		t.Fatalf("straggler pipelined diverges: %v vs %v", rep.MeanReturnPerIter, serial.MeanReturnPerIter)
	}
}

func TestStragglerCostModel(t *testing.T) {
	cfg := testConfig()
	cfg.StragglerEvery = 2
	cfg.StragglerFactor = 5
	if got := cfg.stepCostFor(0); got != cfg.StepCost {
		t.Fatalf("sim 0 cost = %v", got)
	}
	if got := cfg.stepCostFor(1); got != 5*cfg.StepCost {
		t.Fatalf("sim 1 cost = %v", got)
	}
}

func TestBSPOverheadSlowsDriver(t *testing.T) {
	cfg := testConfig()
	cfg.Iters = 1
	cfg.StepsPerIter = 2
	fast := bsp.New(bsp.Config{Executors: cfg.NumSims, DriverOverhead: 0})
	slow := bsp.New(bsp.Config{Executors: cfg.NumSims, DriverOverhead: 5 * time.Millisecond})
	fastRep := RunBSP(cfg, fast)
	slowRep := RunBSP(cfg, slow)
	// 8 tasks * 5ms = 40ms of injected driver cost minimum.
	if slowRep.Elapsed < fastRep.Elapsed+30*time.Millisecond {
		t.Fatalf("overhead not visible: fast=%v slow=%v", fastRep.Elapsed, slowRep.Elapsed)
	}
}

// TestWireTypesArePlainData: everything a step or an action task is handed
// or returns — a carry after a real step (its Env.Cfg holds a Duration, its
// Obs is a named slice), the policy, the BSP input, the action batch and its
// nil "no actions yet" form — crosses in codec's value form.
func TestWireTypesArePlainData(t *testing.T) {
	cfg := testConfig()
	c := stepSim(initialCarries(cfg)[0], 1)
	codectest.PlainData(t, c, wirePolicy(sim.NewPolicy(cfg.ObsDim, cfg.NumActions, cfg.EvalCost)),
		bspStepIn{Carry: c, Action: 2}, []int{1, 0, 3}, []int(nil), 7)
}

// TestCoreProposesNothing: RunCore holds every future it creates, so the
// record-lifetime machinery has nothing to look at — nothing drains, no
// node proposes a record, nothing is retired. A proposal here would mean
// something polls the living.
func TestCoreProposesNothing(t *testing.T) {
	cfg := testConfig()
	c := testCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := RunCore(ctx, cfg, c.Driver()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		res := n.Lifetime().RetireDue(time.Now().Add(time.Hour))
		queued, _ := n.Lifetime().Proposals()
		if got := n.Metrics().Snapshot().Counters["lifetime.retire.proposed"]; got != 0 || queued != 0 || res.Tasks+res.Objects != 0 {
			t.Fatalf("node %d: %d proposals made, %d queued, %+v retired by an application that released nothing", i, got, queued, res)
		}
	}
}
