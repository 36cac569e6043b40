package sensor

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec/codectest"
	"repro/internal/core"
	"repro/internal/types"
)

func fastConfig(seed uint64) Config {
	cfg := Default(seed)
	cfg.Windows = 5
	cfg.PreprocessCost = 200 * time.Microsecond
	cfg.FuseCost = 100 * time.Microsecond
	return cfg
}

func sensorCluster(t *testing.T) *cluster.Cluster {
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

func TestRunProcessesAllWindows(t *testing.T) {
	cfg := fastConfig(1)
	c := sensorCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != cfg.Windows {
		t.Fatalf("processed %d/%d windows", rep.Windows, cfg.Windows)
	}
	if rep.Latency.N() != cfg.Windows {
		t.Fatalf("latency samples = %d", rep.Latency.N())
	}
	if rep.Latency.Max() <= 0 {
		t.Fatal("latencies not measured")
	}
}

func TestEstimatesDeterministic(t *testing.T) {
	cfg := fastConfig(2)
	c := sensorCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	a, err := Run(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("window %d estimate diverged: %v vs %v", i, a.Estimates[i], b.Estimates[i])
		}
	}
}

func TestEstimatesBounded(t *testing.T) {
	// Preprocessing clamps to [-1, 1]; the fused mean must stay within.
	cfg := fastConfig(3)
	c := sensorCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, est := range rep.Estimates {
		if est < -1 || est > 1 {
			t.Fatalf("window %d estimate %v escaped clamp", i, est)
		}
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	cfg := fastConfig(4)
	a := cfg.sample(0, 0)
	b := cfg.sample(0, 0)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("sample not deterministic")
		}
	}
	c := cfg.sample(1, 0)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical readings")
	}
}

func TestPipeliningKeepsMultipleWindowsInFlight(t *testing.T) {
	cfg := fastConfig(5)
	cfg.Windows = 8
	cfg.MaxInFlight = 4
	c := sensorCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != cfg.Windows {
		t.Fatalf("processed %d windows", rep.Windows)
	}
	// With 4-deep pipelining the total must be well under sequential sum of
	// window latencies.
	var seqSum time.Duration
	for i := 0; i < rep.Latency.N(); i++ {
		seqSum += rep.Latency.Mean()
	}
	if rep.Elapsed > seqSum {
		t.Fatalf("no pipelining visible: elapsed %v vs sequential %v", rep.Elapsed, seqSum)
	}
}

// TestWireTypesArePlainData: readings, kernel arguments and estimates cross
// in codec's value form.
func TestWireTypesArePlainData(t *testing.T) {
	codectest.PlainData(t, reading{Stream: 1, Window: 2, Data: []float64{1, 2, 3}}, reading{}, kernelArg{CostNs: 5}, 0.25)
}
