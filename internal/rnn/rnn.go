// Package rnn implements the paper's Figure 2c workload: a recurrent
// neural network unrolled over time as a task graph. Cell (l, t) — layer l
// at timestep t — depends on its own layer's previous state (l, t-1) and on
// the layer below's output (l-1, t), and "the RNN consists of different
// functions for each layer, each of which may require different amounts of
// computation" (R4). The resulting diagonal-wavefront dependencies are
// exactly the "arbitrary dataflow" of R5 that BSP staging cannot express
// without inserting barriers.
//
// Two drivers run the identical network: RunDataflow submits all L×T cell
// tasks up front with fine-grained dependencies (wavefront parallelism
// emerges from the dataflow), and RunBarriered inserts a driver-side
// barrier after every timestep (the BSP rendition). Experiment E11
// compares their makespans.
package rnn

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/types"
)

// FuncCell is the remote cell function's registry name.
const FuncCell = "rnn.cell"

// Config shapes the unrolled network.
type Config struct {
	// Layers is the network depth (L).
	Layers int
	// Timesteps is the unroll length (T).
	Timesteps int
	// Hidden is the state vector width.
	Hidden int
	// BaseCost is layer 0's compute; layer l costs BaseCost*(1 + l*CostSkew)
	// — the heterogeneity of Fig 2c.
	BaseCost time.Duration
	CostSkew float64
	// Seed derives deterministic weights and inputs.
	Seed uint64
}

// Default returns a small heterogeneous network.
func Default(seed uint64) Config {
	return Config{Layers: 4, Timesteps: 8, Hidden: 16, BaseCost: 2 * time.Millisecond, CostSkew: 0.75, Seed: seed}
}

// LayerCost is layer l's kernel duration.
func (c Config) LayerCost(l int) time.Duration {
	return time.Duration(float64(c.BaseCost) * (1 + float64(l)*c.CostSkew))
}

// cellArg is the wire argument of FuncCell.
type cellArg struct {
	Layer  int
	Step   int
	Hidden int
	CostNs int64
	Seed   uint64
}

// cellCompute is the shared cell body: h' = tanh(mix(h, x)) with weights
// derived from (seed, layer), after burning the layer's kernel cost.
func cellCompute(arg cellArg, h, x []float64) []float64 {
	sim.Compute(time.Duration(arg.CostNs))
	out := make([]float64, arg.Hidden)
	// Deterministic pseudo-weights from (seed, layer).
	w := func(i, j int) float64 {
		v := arg.Seed ^ uint64(arg.Layer)<<32 ^ uint64(i)<<16 ^ uint64(j)
		v ^= v >> 12
		v ^= v << 25
		v ^= v >> 27
		return (float64((v*0x2545f4914f6cdd1d)>>11)/float64(1<<53))*2 - 1
	}
	for i := 0; i < arg.Hidden; i++ {
		s := 0.0
		for j := 0; j < arg.Hidden; j++ {
			var hv, xv float64
			if j < len(h) {
				hv = h[j]
			}
			if j < len(x) {
				xv = x[j]
			}
			s += w(i, j)*hv + w(i, j+arg.Hidden)*xv
		}
		out[i] = math.Tanh(s / float64(arg.Hidden))
	}
	return out
}

// RegisterFuncs installs the cell function.
func RegisterFuncs(reg *core.Registry) {
	// FuncCell (enc is codec.Encode): args = [enc(cellArg), enc([]float64 h_prev),
	// enc([]float64 x_below)] -> enc([]float64 h).
	reg.Register(FuncCell, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("rnn.cell expects 3 args, got %d", len(args))
		}
		arg, err := codec.DecodeAs[cellArg](args[0])
		if err != nil {
			return nil, err
		}
		h, err := codec.DecodeAs[[]float64](args[1])
		if err != nil {
			return nil, err
		}
		x, err := codec.DecodeAs[[]float64](args[2])
		if err != nil {
			return nil, err
		}
		out := cellCompute(arg, h, x)
		enc, err := codec.Encode(out)
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})
}

// inputs derives the deterministic input sequence.
func (c Config) inputs() [][]float64 {
	xs := make([][]float64, c.Timesteps)
	for t := range xs {
		x := make([]float64, c.Hidden)
		for i := range x {
			v := c.Seed ^ uint64(t)<<20 ^ uint64(i)
			v ^= v >> 12
			v ^= v << 25
			v ^= v >> 27
			x[i] = (float64((v*0x2545f4914f6cdd1d)>>11)/float64(1<<53))*2 - 1
		}
		xs[t] = x
	}
	return xs
}

func (c Config) cellArgFor(l, t int) cellArg {
	return cellArg{Layer: l, Step: t, Hidden: c.Hidden, CostNs: int64(c.LayerCost(l)), Seed: c.Seed}
}

// Report is a completed run.
type Report struct {
	Impl    string
	Elapsed time.Duration
	Tasks   int
	// Output is the top layer's final hidden state: identical across
	// drivers for one seed (the equivalence check).
	Output []float64
}

// RunSerial computes the network single-threaded (ground truth).
func RunSerial(cfg Config) Report {
	start := time.Now()
	xs := cfg.inputs()
	h := make([][]float64, cfg.Layers) // h[l] = layer l's last state
	tasks := 0
	for t := 0; t < cfg.Timesteps; t++ {
		below := xs[t]
		for l := 0; l < cfg.Layers; l++ {
			h[l] = cellCompute(cfg.cellArgFor(l, t), h[l], below)
			below = h[l]
			tasks++
		}
	}
	return Report{Impl: "serial", Elapsed: time.Since(start), Tasks: tasks, Output: h[cfg.Layers-1]}
}

func submitCell(driver *core.Client, cfg Config, l, t int, hPrev, xBelow types.Arg) (core.ObjectRef, error) {
	return driver.Submit1(core.Call{
		Function:  FuncCell,
		Args:      []types.Arg{core.Val(cfg.cellArgFor(l, t)), hPrev, xBelow},
		Resources: types.CPU(1),
	})
}

// RunDataflow submits every cell task up front; the wavefront parallelism
// of Fig 2c emerges purely from the dependency structure (R5).
func RunDataflow(ctx context.Context, driver *core.Client, cfg Config) (Report, error) {
	start := time.Now()
	xs := cfg.inputs()
	zero := core.Val([]float64(nil))
	hRef := make([]core.ObjectRef, cfg.Layers) // last state ref per layer
	tasks := 0
	for t := 0; t < cfg.Timesteps; t++ {
		belowArg := core.Val(xs[t])
		for l := 0; l < cfg.Layers; l++ {
			hArg := zero
			if t > 0 {
				hArg = core.RefOf(hRef[l])
			}
			ref, err := submitCell(driver, cfg, l, t, hArg, belowArg)
			if err != nil {
				return Report{}, err
			}
			hRef[l] = ref
			belowArg = core.RefOf(ref)
			tasks++
		}
	}
	raw, err := driver.Get(ctx, hRef[cfg.Layers-1])
	if err != nil {
		return Report{}, err
	}
	out, err := codec.DecodeAs[[]float64](raw)
	if err != nil {
		return Report{}, err
	}
	return Report{Impl: "dataflow", Elapsed: time.Since(start), Tasks: tasks, Output: out}, nil
}

// RunBarriered is the BSP rendition: the driver blocks on every timestep's
// outputs before submitting the next — the barrier Fig 2c's shape makes
// wasteful, since layer 0 of step t+1 needs nothing from layer L of step t.
func RunBarriered(ctx context.Context, driver *core.Client, cfg Config) (Report, error) {
	start := time.Now()
	xs := cfg.inputs()
	zero := core.Val([]float64(nil))
	hRef := make([]core.ObjectRef, cfg.Layers)
	tasks := 0
	for t := 0; t < cfg.Timesteps; t++ {
		belowArg := core.Val(xs[t])
		for l := 0; l < cfg.Layers; l++ {
			hArg := zero
			if t > 0 {
				hArg = core.RefOf(hRef[l])
			}
			ref, err := submitCell(driver, cfg, l, t, hArg, belowArg)
			if err != nil {
				return Report{}, err
			}
			hRef[l] = ref
			belowArg = core.RefOf(ref)
			tasks++
		}
		// The barrier: wait for the whole timestep before continuing.
		refs := make([]core.ObjectRef, cfg.Layers)
		copy(refs, hRef)
		if _, _, err := driver.Wait(ctx, refs, cfg.Layers, -1); err != nil {
			return Report{}, err
		}
	}
	raw, err := driver.Get(ctx, hRef[cfg.Layers-1])
	if err != nil {
		return Report{}, err
	}
	out, err := codec.DecodeAs[[]float64](raw)
	if err != nil {
		return Report{}, err
	}
	return Report{Impl: "barriered", Elapsed: time.Since(start), Tasks: tasks, Output: out}, nil
}
