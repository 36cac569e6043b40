package rnn

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec/codectest"
	"repro/internal/core"
	"repro/internal/types"
)

func fastConfig(seed uint64) Config {
	cfg := Default(seed)
	cfg.BaseCost = 200 * time.Microsecond
	return cfg
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func rnnCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	reg := core.NewRegistry()
	RegisterFuncs(reg)
	c, err := cluster.New(cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestLayerCostHeterogeneity(t *testing.T) {
	cfg := Default(1)
	if cfg.LayerCost(0) >= cfg.LayerCost(3) {
		t.Fatal("layer costs not increasing — heterogeneity (R4) missing")
	}
}

func TestSerialDeterministic(t *testing.T) {
	cfg := fastConfig(11)
	a, b := RunSerial(cfg), RunSerial(cfg)
	if !vecEqual(a.Output, b.Output) {
		t.Fatal("serial runs diverge for one seed")
	}
	if a.Tasks != cfg.Layers*cfg.Timesteps {
		t.Fatalf("tasks = %d", a.Tasks)
	}
	// Output must be non-trivial (tanh saturating to same value everywhere
	// would indicate dead weights).
	allSame := true
	for i := 1; i < len(a.Output); i++ {
		if a.Output[i] != a.Output[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("degenerate output")
	}
}

func TestDataflowMatchesSerial(t *testing.T) {
	cfg := fastConfig(12)
	serial := RunSerial(cfg)
	c := rnnCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunDataflow(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecEqual(rep.Output, serial.Output) {
		t.Fatalf("dataflow output diverges from serial")
	}
	if rep.Tasks != serial.Tasks {
		t.Fatalf("task counts differ: %d vs %d", rep.Tasks, serial.Tasks)
	}
}

func TestBarrieredMatchesSerial(t *testing.T) {
	cfg := fastConfig(13)
	serial := RunSerial(cfg)
	c := rnnCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunBarriered(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecEqual(rep.Output, serial.Output) {
		t.Fatal("barriered output diverges from serial")
	}
}

func TestDifferentSeedsDifferentOutputs(t *testing.T) {
	a := RunSerial(fastConfig(1))
	b := RunSerial(fastConfig(2))
	if vecEqual(a.Output, b.Output) {
		t.Fatal("different seeds produced identical outputs")
	}
}

// TestWireTypesArePlainData: a cell's argument and its vectors cross in
// codec's value form.
func TestWireTypesArePlainData(t *testing.T) {
	codectest.PlainData(t, cellArg{Layer: 1, Step: 2, Hidden: 8, CostNs: 1000, Seed: 9}, []float64{0.5, -1}, []float64{})
}
