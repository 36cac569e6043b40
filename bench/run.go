package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef mirrors one entry of BENCHMARK.json; the smoke test holds the
// two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

var endToEndDefs = []metricDef{
	{"rtt_us_p50", "us", "lower", 0.25},
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs is filled from the stage names and perTask's keys in init,
// so the traced run cannot emit a metric the list does not have.
var perLayerDefs []metricDef

func init() {
	for _, s := range stageNames {
		perLayerDefs = append(perLayerDefs, metricDef{name: s + "_us", unit: "us", better: "lower"})
	}
	perLayerDefs = append(perLayerDefs,
		metricDef{name: "stages_sum_us", unit: "us", better: "lower"},
		metricDef{name: "traced_rtt_us_p50", unit: "us", better: "lower"},
		metricDef{name: "trace_overhead_pct", unit: "%", better: "lower"},
	)
	perOp := perTask(counters{}, 1)
	for _, name := range sortedKeys(perOp) {
		better := "lower"
		if name == "objectstore.get_hit_ratio" || name == "scheduler.inlined_per_op" {
			better = "higher"
		}
		perLayerDefs = append(perLayerDefs, metricDef{name: name, unit: perOp[name].Unit, better: better})
	}
	perLayerDefs = append(perLayerDefs, metricDef{name: "process.heap_mb_end", unit: "MB", better: "lower"})
}

// options are one run's knobs.
type options struct {
	seed    uint64
	seconds float64 // length of the measured phase
	// scale shrinks warm-up counts, set-up repetitions and the measured
	// phase together for the smoke test; a scaled run is never recordable.
	scale  float64
	traced bool
	outDir string // where a traced run writes its Chrome trace
}

// setupReps is how many times an untraced run sets the cluster up; setup_s
// is the median, so one slow boot cannot move it.
const setupReps = 5

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	Samples   int     `json:"samples"`
	TailPct   float64 `json:"tail_percentile"`
	// Metrics are the BENCHMARK.json metrics: end-to-end on an untraced
	// run, per-layer on a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Spread is each end-to-end metric's range over the run's own segments
	// (set-up repetitions for setup_s), as a share of its median.
	Spread map[string]float64 `json:"spread,omitempty"`
	// Info is printed but never gated: tails, means, derived figures.
	Info map[string]metric `json:"info"`
	// StageShare is each stage's share of the traced operation.
	StageShare map[string]float64 `json:"stage_share,omitempty"`
	firstErr   error
}

func (r *result) correct() bool { return r.Failed == 0 && r.firstErr == nil }

// up boots a fresh cluster for w and runs the fixed-count warm-up.
func up(ctx context.Context, w workload, o options, rec *recorder) (*env, opFunc, error) {
	cfg := w.config
	cfg.Registry = newRegistry(rec)
	cfg.DisableEventLog = true
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	e := &env{ctx: ctx, c: c, d: c.Driver(), seed: o.seed, traced: o.traced}
	op, err := w.op(e)
	if err != nil {
		c.Shutdown()
		return nil, nil, err
	}
	warm := int(math.Ceil(float64(w.warmup) * o.scale))
	for i := 0; i < warm; i++ {
		var s opStamps
		if err := op(&s); err != nil {
			c.Shutdown()
			return nil, nil, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	return e, op, nil
}

// down shuts the cluster down and verifies that Shutdown returns.
func down(c *cluster.Cluster) error {
	done := make(chan struct{})
	go func() {
		c.Shutdown()
		close(done)
	}()
	select {
	case <-done:
		runtime.GC()
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("cluster Shutdown did not return within 30s")
	}
}

// measure runs op back to back for d and returns the duration of every
// operation that succeeded, in run order.
func measure(op opFunc, d time.Duration, r *result, keep func(opStamps)) []int64 {
	durs := make([]int64, 0, 1<<16)
	for deadline := now() + int64(d); now() < deadline; {
		var s opStamps
		err := op(&s)
		r.Attempted++
		if err != nil {
			r.Failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("operation %d: %w", r.Attempted-1, err)
			}
			continue
		}
		durs = append(durs, s.end-s.start)
		if keep != nil {
			keep(s)
		}
	}
	return durs
}

// runWorkload is one run: set-up, measured phase, shutdown. An untraced run
// reports the end-to-end metrics; a traced run the per-layer ones.
func runWorkload(w workload, o options) (*result, error) {
	// No run may outlive the driver's patience, whatever the system does.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	runtime.GC()
	r := &result{Workload: w.name, Traced: o.traced, Metrics: map[string]metric{}, Info: map[string]metric{}}
	dur := time.Duration(o.seconds * o.scale * float64(time.Second))
	if o.traced {
		return r, runTraced(ctx, w, o, dur, r)
	}

	reps := max(1, int(math.Round(setupReps*o.scale)))
	setups := make([]float64, reps)
	var e *env
	var op opFunc
	for i := range setups {
		if e != nil {
			if err := down(e.c); err != nil {
				return r, err
			}
		}
		t0 := now()
		var err error
		if e, op, err = up(ctx, w, o, nil); err != nil {
			return r, err
		}
		setups[i] = float64(now()-t0) / 1e9
	}
	durs := measure(op, dur, r, nil)
	if err := down(e.c); err != nil {
		return r, err
	}

	rtts := segmentValues(durs, medianUs)
	rates := segmentValues(durs, rateOf(w.tasksPerOp))
	sorted := sortedCopy(durs)
	r.Samples = len(durs)
	r.TailPct = tailPercentile(len(durs))
	r.Metrics["rtt_us_p50"] = metric{float64(percentile(sorted, 50)) / 1e3, "us"}
	r.Metrics["tasks_per_s"] = metric{median(rates), "1/s"}
	r.Metrics["setup_s"] = metric{median(setups), "s"}
	r.Spread = map[string]float64{"rtt_us_p50": relRange(rtts), "tasks_per_s": relRange(rates), "setup_s": relRange(setups)}
	r.Info["rtt_us_tail"] = metric{float64(percentile(sorted, r.TailPct)) / 1e3, "us"}
	r.Info["rtt_us_mean"] = metric{mean(durs) / 1e3, "us"}
	switch w.name {
	case "data_chain":
		r.Info["payload_mb_per_s"] = metric{median(rates) * 2 * payloadSize / 1e6, "MB/s"}
	case "rl_step":
		r.Info["iter_ms_p50"] = metric{float64(percentile(sorted, 50)) / 1e6, "ms"}
		r.Info["overhead_x"] = metric{float64(percentile(sorted, 50)) / 1e6 / rlIdealMs, "x"}
	}
	return r, nil
}

// tracedSlices is how many alternating bare/traced slices a traced run's
// measured phase is cut into. Latency drifts over a run as the control
// plane's tables and the heap grow, so a bare phase followed by a traced one
// would charge the drift to tracing.
const tracedSlices = 5

// runTraced sets up once, then alternates bare slices (wrappers and stamps
// off, 2/5 of the time) with traced ones (3/5) on the same cluster, so
// trace_overhead_pct compares like with like inside one process. Counters
// are summed over the traced slices only.
func runTraced(ctx context.Context, w workload, o options, dur time.Duration, r *result) error {
	rec := &recorder{}
	e, op, err := up(ctx, w, o, rec)
	if err != nil {
		return err
	}
	var ref result
	var bare, durs []int64
	var delta counters
	for i := 0; i < tracedSlices; i++ {
		e.traced = false
		bare = append(bare, measure(op, dur*2/5/tracedSlices, &ref, nil)...)
		e.traced = true
		rec.on.Store(true)
		before := readCounters(e.c)
		durs = append(durs, measure(op, dur*3/5/tracedSlices, r, func(s opStamps) { rec.ops = append(rec.ops, s) })...)
		delta.addDelta(before, readCounters(e.c))
		rec.on.Store(false)
	}
	heap := heapMB()
	if err := down(e.c); err != nil {
		return err
	}
	if ref.firstErr != nil {
		return fmt.Errorf("bare slice: %w", ref.firstErr)
	}
	if len(durs) == 0 || len(bare) == 0 {
		return fmt.Errorf("traced run completed no operation: %v", r.firstErr)
	}

	spans := rec.stagesOf()
	for i, sp := range spans {
		var sum int64
		for _, d := range sp.stage {
			sum += d
		}
		if sum != sp.end-sp.start {
			return fmt.Errorf("operation %d: stages sum to %d ns, the operation took %d ns", i, sum, sp.end-sp.start)
		}
	}
	r.Samples = len(durs)
	r.TailPct = tailPercentile(len(durs))
	traced := float64(percentile(sortedCopy(durs), 50)) / 1e3
	profile := medianOpProfile(spans)
	var sum float64
	for _, us := range profile {
		sum += us
	}
	r.StageShare = map[string]float64{}
	for i, name := range stageNames {
		r.Metrics[name+"_us"] = metric{profile[i], "us"}
		r.StageShare[name] = profile[i] / sum
	}
	r.Metrics["stages_sum_us"] = metric{sum, "us"}
	r.Metrics["traced_rtt_us_p50"] = metric{traced, "us"}
	base := float64(percentile(sortedCopy(bare), 50)) / 1e3
	r.Metrics["trace_overhead_pct"] = metric{(traced - base) / base * 100, "%"}
	r.Info["bare_rtt_us_p50"] = metric{base, "us"}
	for name, m := range perTask(delta, len(durs)*w.tasksPerOp) {
		r.Metrics[name] = m
	}
	r.Metrics["process.heap_mb_end"] = metric{heap, "MB"}
	var busy int64
	for _, x := range rec.execs {
		busy += x.exit - x.entry
	}
	r.Info["worker.exec_busy_us_per_op"] = metric{float64(busy) / 1e3 / float64(len(durs)), "us"}
	if o.outDir != "" {
		if err := writeChromeTrace(filepath.Join(o.outDir, w.name+".trace.json"), w.name, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace export:", err)
		}
	}
	return nil
}
