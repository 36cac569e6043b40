// Package sensor implements the paper's Figure 2a workload: online
// processing of streaming sensory data to model the environment. N sensor
// streams (video, LIDAR, ...) produce readings continuously; for every
// fusion window the system runs one preprocossing task per stream, fuses
// the cleaned readings pairwise up a reduction tree, and emits an
// environment estimate. The per-window end-to-end latency distribution is
// the metric (R1: the robot is controlled in real time).
package sensor

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/types"
)

// Remote function names.
const (
	FuncPreprocess = "sensor.preprocess"
	FuncFuse       = "sensor.fuse"
	FuncEstimate   = "sensor.estimate"
)

// Config shapes the streaming workload.
type Config struct {
	// Streams is the sensor count.
	Streams int
	// Windows is how many fusion windows to process.
	Windows int
	// Dim is each reading's feature dimension.
	Dim int
	// PreprocessCost is the per-stream cleaning kernel duration; stream i
	// costs PreprocessCost*(1+i*Skew) — heterogeneous sensors (R4).
	PreprocessCost time.Duration
	Skew           float64
	// FuseCost is each pairwise-fusion kernel's duration.
	FuseCost time.Duration
	// Interval is the window arrival period (0 = process back to back).
	Interval time.Duration
	// MaxInFlight bounds concurrently processed windows (pipelining depth).
	MaxInFlight int
	// Seed derives deterministic readings.
	Seed uint64
}

// Default returns a modest eight-sensor configuration.
func Default(seed uint64) Config {
	return Config{
		Streams:        8,
		Windows:        10,
		Dim:            8,
		PreprocessCost: 2 * time.Millisecond,
		Skew:           0.25,
		FuseCost:       time.Millisecond,
		MaxInFlight:    4,
		Seed:           seed,
	}
}

// reading is one sensor sample on the wire.
type reading struct {
	Stream int
	Window int
	Data   []float64
}

// kernelArg carries a kernel's cost through task args.
type kernelArg struct{ CostNs int64 }

// RegisterFuncs installs the preprocessing, fusion, and estimate functions.
func RegisterFuncs(reg *core.Registry) {
	// FuncPreprocess (enc is codec.Encode): [enc(kernelArg), enc(reading)] -> enc(reading).
	reg.Register(FuncPreprocess, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("sensor.preprocess expects 2 args")
		}
		k, err := codec.DecodeAs[kernelArg](args[0])
		if err != nil {
			return nil, err
		}
		r, err := codec.DecodeAs[reading](args[1])
		if err != nil {
			return nil, err
		}
		sim.Compute(time.Duration(k.CostNs))
		for i := range r.Data { // denoise: clamp outliers
			if r.Data[i] > 1 {
				r.Data[i] = 1
			}
			if r.Data[i] < -1 {
				r.Data[i] = -1
			}
		}
		enc, err := codec.Encode(r)
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})

	// FuncFuse: [enc(kernelArg), enc(reading), enc(reading)] -> enc(reading).
	reg.Register(FuncFuse, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("sensor.fuse expects 3 args")
		}
		k, err := codec.DecodeAs[kernelArg](args[0])
		if err != nil {
			return nil, err
		}
		a, err := codec.DecodeAs[reading](args[1])
		if err != nil {
			return nil, err
		}
		b, err := codec.DecodeAs[reading](args[2])
		if err != nil {
			return nil, err
		}
		sim.Compute(time.Duration(k.CostNs))
		out := reading{Window: a.Window, Data: make([]float64, len(a.Data))}
		for i := range out.Data {
			var bv float64
			if i < len(b.Data) {
				bv = b.Data[i]
			}
			out.Data[i] = (a.Data[i] + bv) / 2
		}
		enc, err := codec.Encode(out)
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})

	// FuncEstimate: [enc(reading)] -> enc(float64): the scalar environment
	// estimate controlling the actuator.
	reg.Register(FuncEstimate, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("sensor.estimate expects 1 arg")
		}
		r, err := codec.DecodeAs[reading](args[0])
		if err != nil {
			return nil, err
		}
		s := 0.0
		for _, v := range r.Data {
			s += v
		}
		enc, err := codec.Encode(s / float64(len(r.Data)+1))
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})
}

// sample synthesizes stream s's reading for window w.
func (c Config) sample(s, w int) reading {
	data := make([]float64, c.Dim)
	for i := range data {
		v := c.Seed ^ uint64(s)<<40 ^ uint64(w)<<20 ^ uint64(i)
		v ^= v >> 12
		v ^= v << 25
		v ^= v >> 27
		data[i] = (float64((v*0x2545f4914f6cdd1d)>>11)/float64(1<<53))*4 - 2
	}
	return reading{Stream: s, Window: w, Data: data}
}

// Report is a completed streaming run.
type Report struct {
	Windows   int
	Latency   *stats.Sample // per-window submit -> estimate latency
	Estimates []float64
	Elapsed   time.Duration
}

// Run processes cfg.Windows fusion windows, keeping up to MaxInFlight
// windows in flight (the streaming pipeline). Per window it builds the
// Fig 2a DAG: Streams preprocess tasks, a pairwise fusion tree, one
// estimate task.
func Run(ctx context.Context, driver *core.Client, cfg Config) (Report, error) {
	start := time.Now()
	rep := Report{Latency: stats.NewSample(cfg.Windows), Estimates: make([]float64, cfg.Windows)}

	type flight struct {
		window  int
		ref     core.ObjectRef
		started time.Time
	}
	var inflight []flight

	harvest := func(block bool) error {
		if len(inflight) == 0 {
			return nil
		}
		need := 0 // poll
		if block || len(inflight) >= cfg.MaxInFlight {
			need = 1
		}
		refs := make([]core.ObjectRef, len(inflight))
		for i, f := range inflight {
			refs[i] = f.ref
		}
		timeout := time.Duration(-1)
		if need == 0 {
			timeout = 0
		}
		ready, _, err := driver.Wait(ctx, refs, max(need, 0), timeout)
		if err != nil {
			return err
		}
		readySet := make(map[types.ObjectID]bool, len(ready))
		for _, r := range ready {
			readySet[r.ID] = true
		}
		keep := inflight[:0]
		for _, f := range inflight {
			if !readySet[f.ref.ID] {
				keep = append(keep, f)
				continue
			}
			raw, err := driver.Get(ctx, f.ref)
			if err != nil {
				return err
			}
			est, err := codec.DecodeAs[float64](raw)
			if err != nil {
				return err
			}
			rep.Estimates[f.window] = est
			rep.Latency.Add(time.Since(f.started))
			rep.Windows++
		}
		inflight = keep
		return nil
	}

	for w := 0; w < cfg.Windows; w++ {
		if cfg.Interval > 0 {
			time.Sleep(cfg.Interval)
		}
		for len(inflight) >= cfg.MaxInFlight {
			if err := harvest(true); err != nil {
				return rep, err
			}
		}
		began := time.Now()
		ref, err := submitWindow(driver, cfg, w)
		if err != nil {
			return rep, err
		}
		inflight = append(inflight, flight{window: w, ref: ref, started: began})
		if err := harvest(false); err != nil {
			return rep, err
		}
	}
	for len(inflight) > 0 {
		if err := harvest(true); err != nil {
			return rep, err
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// submitWindow builds one window's DAG and returns the estimate future.
func submitWindow(driver *core.Client, cfg Config, w int) (core.ObjectRef, error) {
	level := make([]core.ObjectRef, 0, cfg.Streams)
	for s := 0; s < cfg.Streams; s++ {
		cost := time.Duration(float64(cfg.PreprocessCost) * (1 + float64(s)*cfg.Skew))
		ref, err := driver.Submit1(core.Call{
			Function:  FuncPreprocess,
			Args:      []types.Arg{core.Val(kernelArg{CostNs: int64(cost)}), core.Val(cfg.sample(s, w))},
			Resources: types.CPU(1),
		})
		if err != nil {
			return core.ObjectRef{}, err
		}
		level = append(level, ref)
	}
	// Pairwise fusion tree.
	for len(level) > 1 {
		var next []core.ObjectRef
		for i := 0; i+1 < len(level); i += 2 {
			ref, err := driver.Submit1(core.Call{
				Function:  FuncFuse,
				Args:      []types.Arg{core.Val(kernelArg{CostNs: int64(cfg.FuseCost)}), core.RefOf(level[i]), core.RefOf(level[i+1])},
				Resources: types.CPU(1),
			})
			if err != nil {
				return core.ObjectRef{}, err
			}
			next = append(next, ref)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return driver.Submit1(core.Call{
		Function:  FuncEstimate,
		Args:      []types.Arg{core.RefOf(level[0])},
		Resources: types.CPU(1),
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
