package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/types"
)

var epoch = time.Now()

// now is nanoseconds since the process epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// execStamp is one task-function execution seen by a wrapped registry entry.
// deps are the objects it took by reference; with the task ID (which names
// its return objects) they give the dependency edges between executions.
type execStamp struct {
	task        types.TaskID
	numReturns  int
	deps        []types.ObjectID
	entry, exit int64
}

// recorder keeps a traced run's spans in memory: the harness's own stamps
// around its calls, and entry/exit stamps from every wrapped task function.
// Nothing is written until the run has ended.
type recorder struct {
	on    atomic.Bool // wrappers stamp only while set, so the reference phase runs bare
	mu    sync.Mutex
	execs []execStamp
	ops   []opStamps
}

func (r *recorder) wrap(fn core.Function) core.Function {
	return func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if !r.on.Load() {
			return fn(tc, args)
		}
		entry := now()
		out, err := fn(tc, args)
		exit := now()
		spec := tc.Spec()
		x := execStamp{task: spec.ID, numReturns: spec.NumReturns, entry: entry, exit: exit}
		for _, a := range spec.Args {
			if a.IsRef {
				x.deps = append(x.deps, a.Ref)
			}
		}
		r.mu.Lock()
		r.execs = append(r.execs, x)
		r.mu.Unlock()
		return out, err
	}
}

// Stage names, in the order they partition an operation.
var stageNames = []string{"core.put", "core.submit", "sched.wait", "worker.exec", "result.return", "core.release"}

const (
	stagePut = iota
	stageSubmit
	stageWait
	stageExec
	stageReturn
	stageRelease
	numStages
)

// opSpans is one operation cut into its stages.
type opSpans struct {
	start, end int64
	stage      [numStages]int64 // ns per stage; they sum to end-start
	// execs are the task-function executions behind worker.exec (exported
	// as child spans).
	execs [][2]int64
}

// stagesOf partitions every recorded operation.
//
// An operation whose calls the harness makes itself (it knows the task IDs)
// is cut at: start, Put return, Submit return, function entry, function
// exit, Get/Wait return, end (after Release). Entry and exit are those of
// the operation's last-finishing task, and each boundary is clamped to be
// no earlier than the one before it, so a function that starts before
// Submit has returned is charged to core.submit. With many tasks in flight
// (noop_window) the cut follows the task that finished last.
//
// rl_step's calls happen inside rl.RunCore, so its executions are matched
// by time and the cut follows the critical path through their dependency
// edges: from the execution that finished last, back through whichever
// dependency finished last, to one with none. Time inside those functions
// is worker.exec; the gaps between a dependency's exit and its dependent's
// entry (result put, dependency wake-up, placement, argument pull, dispatch)
// are sched.wait; start to the first entry is core.submit; the last exit to
// end is result.return.
func (r *recorder) stagesOf() []opSpans {
	byTask := make(map[types.TaskID]*execStamp, len(r.execs))
	byEntry := make([]*execStamp, len(r.execs))
	for i := range r.execs {
		x := &r.execs[i]
		byEntry[i] = x
		if old, ok := byTask[x.task]; !ok || x.exit > old.exit {
			byTask[x.task] = x
		}
	}
	sort.Slice(byEntry, func(i, j int) bool { return byEntry[i].entry < byEntry[j].entry })

	out := make([]opSpans, 0, len(r.ops))
	next := 0 // first byEntry element not yet behind an opaque operation
	for _, op := range r.ops {
		sp := opSpans{start: op.start, end: op.end}
		if len(op.tasks) > 0 {
			last := &execStamp{}
			for _, id := range op.tasks {
				if x, ok := byTask[id]; ok && x.exit >= last.exit {
					last = x
				}
			}
			b := [numStages + 1]int64{op.start, op.put, op.submitted, last.entry, last.exit, op.returned, op.end}
			for i := 1; i < len(b); i++ {
				b[i] = max(b[i], b[i-1])
				sp.stage[i-1] = b[i] - b[i-1]
			}
			sp.execs = [][2]int64{{b[stageExec], b[stageExec+1]}}
			out = append(out, sp)
			continue
		}
		// Executions that began and ended inside the operation are its own;
		// one still running at end (RunCore does not wait for its last act
		// task) is on nobody's critical path.
		for next < len(byEntry) && byEntry[next].entry < op.start {
			next++
		}
		producer := map[types.ObjectID]*execStamp{}
		var cur *execStamp
		for ; next < len(byEntry) && byEntry[next].entry < op.end; next++ {
			x := byEntry[next]
			if x.exit > op.end {
				continue
			}
			for i := 0; i < x.numReturns; i++ {
				producer[types.ObjectIDForReturn(x.task, i)] = x
			}
			if cur == nil || x.exit > cur.exit {
				cur = x
			}
		}
		if cur == nil {
			sp.stage[stageSubmit] = op.end - op.start
			out = append(out, sp)
			continue
		}
		sp.stage[stageReturn] = op.end - cur.exit
		for {
			sp.stage[stageExec] += cur.exit - cur.entry
			sp.execs = append(sp.execs, [2]int64{cur.entry, cur.exit})
			var dep *execStamp
			for _, id := range cur.deps {
				if p := producer[id]; p != nil && (dep == nil || p.exit > dep.exit) {
					dep = p
				}
			}
			// An argument is resolved before its consumer is entered, so the
			// gap is never negative and the path strictly moves back in time.
			if dep == nil || dep.exit > cur.entry {
				sp.stage[stageSubmit] = cur.entry - op.start
				break
			}
			sp.stage[stageWait] += cur.entry - dep.exit
			cur = dep
		}
		out = append(out, sp)
	}
	return out
}

// medianOpProfile is the stage make-up of the median operation, in us: the
// mean of each stage over the operations whose total lies between the 45th
// and 55th percentile. Each stage's own median would not do: the slow stage
// differs from one operation to the next, so stage medians add up to less
// than the median operation and could not account for rtt_us_p50.
func medianOpProfile(spans []opSpans) [numStages]float64 {
	var profile [numStages]float64
	if len(spans) == 0 {
		return profile
	}
	byTotal := append([]opSpans(nil), spans...)
	sort.Slice(byTotal, func(i, j int) bool {
		return byTotal[i].end-byTotal[i].start < byTotal[j].end-byTotal[j].start
	})
	lo, hi := len(byTotal)*45/100, len(byTotal)*55/100
	band := byTotal[lo : hi+1]
	var sum [numStages]int64
	for _, sp := range band {
		for i, d := range sp.stage {
			sum[i] += d
		}
	}
	for i := range profile {
		profile[i] = float64(sum[i]) / float64(len(band)) / 1e3
	}
	return profile
}

// Counter indices. Cumulative per-layer counts read through exported
// accessors only, plus the process's own allocation and CPU totals.
const (
	cMsgs = iota
	cMsgBytes
	cPullObjects
	cPullChunks
	cPullBytes
	cSpilled
	cInlined
	cPlaced
	cParked
	cPuts
	cGets
	cGetMisses
	cExecuted
	cMallocs
	cAllocBytes
	cCPUNs
	numCounters
)

type counters [numCounters]int64

// addDelta adds (after - before) to k.
func (k *counters) addDelta(before, after counters) {
	for i := range k {
		k[i] += after[i] - before[i]
	}
}

func readCounters(c *cluster.Cluster) counters {
	var k counters
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		snap := n.Metrics().Snapshot()
		k[cMsgs] += snap.Counters["transport.messages"]
		k[cMsgBytes] += snap.Counters["transport.bytes.in"] + snap.Counters["transport.bytes.out"]
		k[cPuts] += snap.Counters["objectstore.puts"]
		k[cGets] += snap.Counters["objectstore.gets"]
		k[cGetMisses] += snap.Counters["objectstore.get.misses"]
		objects, chunks, bytes := n.Puller().Stats()
		k[cPullObjects] += objects
		k[cPullChunks] += chunks
		k[cPullBytes] += bytes
		_, spilled, _ := n.Scheduler().Stats()
		k[cSpilled] += spilled
		k[cInlined] += n.Scheduler().Inlined()
		k[cExecuted] += n.Executor().Executed()
	}
	for _, g := range c.Globals {
		k[cPlaced] += g.Placed()
		k[cParked] += g.Parked()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k[cMallocs], k[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		k[cCPUNs] = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return k
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// perTask turns the counter deltas of the traced phase into the per-layer
// metrics; tasks is the number of tasks the phase completed.
func perTask(d counters, tasks int) map[string]metric {
	per := func(i int) float64 { return float64(d[i]) / float64(tasks) }
	hit := 0.0
	if d[cGets] > 0 {
		hit = float64(d[cGets]-d[cGetMisses]) / float64(d[cGets])
	}
	return map[string]metric{
		"transport.msgs_per_op":        {per(cMsgs), "count"},
		"transport.bytes_per_op":       {per(cMsgBytes), "B"},
		"lifetime.pull_objects_per_op": {per(cPullObjects), "count"},
		"lifetime.pull_chunks_per_op":  {per(cPullChunks), "count"},
		"lifetime.pull_bytes_per_op":   {per(cPullBytes), "B"},
		"scheduler.spilled_per_op":     {per(cSpilled), "count"},
		"scheduler.placed_per_op":      {per(cPlaced), "count"},
		"scheduler.parked_per_op":      {per(cParked), "count"},
		"scheduler.inlined_per_op":     {per(cInlined), "count"},
		"objectstore.puts_per_op":      {per(cPuts), "count"},
		"objectstore.gets_per_op":      {per(cGets), "count"},
		"objectstore.get_hit_ratio":    {hit, "ratio"},
		"worker.executed_per_op":       {per(cExecuted), "count"},
		"process.allocs_per_op":        {per(cMallocs), "count"},
		"process.alloc_bytes_per_op":   {per(cAllocBytes), "B"},
		"process.cpu_us_per_op":        {per(cCPUNs) / 1e3, "us"},
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// Perfetto opens directly. ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceExportOps caps the exported operations: a stage table needs a few
// thousand to read, and 300 000 noop operations would be a 200 MB file.
const traceExportOps = 2000

// writeChromeTrace exports spans as (name, start, end, parent, op id): the
// operation is the parent span on track 0, its stages are children on track
// 1 laid end to end, and the task-function executions behind worker.exec
// are on track 2.
func writeChromeTrace(path, workload string, spans []opSpans) error {
	if len(spans) > traceExportOps {
		spans = spans[:traceExportOps]
	}
	events := make([]chromeEvent, 0, len(spans)*(numStages+2))
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for id, sp := range spans {
		events = append(events, chromeEvent{
			Name: workload, Cat: "op", Ph: "X", Ts: us(sp.start), Dur: us(sp.end - sp.start),
			Pid: 1, Tid: 0, Args: map[string]any{"op": id, "parent": nil},
		})
		at := sp.start
		for i, d := range sp.stage {
			if d > 0 {
				events = append(events, chromeEvent{
					Name: stageNames[i], Cat: "stage", Ph: "X", Ts: us(at), Dur: us(d),
					Pid: 1, Tid: 1, Args: map[string]any{"op": id, "parent": workload},
				})
			}
			// rl_step's exec and wait time interleave; its stage spans show
			// the totals laid end to end, its exec spans the real instants.
			at += d
		}
		for _, x := range sp.execs {
			events = append(events, chromeEvent{
				Name: "task function", Cat: "exec", Ph: "X", Ts: us(x[0]), Dur: us(x[1] - x[0]),
				Pid: 1, Tid: 2, Args: map[string]any{"op": id, "parent": "worker.exec"},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
