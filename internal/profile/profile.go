// Package profile implements the debugging and profiling requirement (R7):
// because all execution state lives in the centralized control plane, a
// task timeline can be reconstructed after the fact from the task table and
// event log alone — no instrumentation of user code. The package computes
// per-task span breakdowns, aggregate statistics, and exports Chrome
// trace-event JSON for visual inspection.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/types"
)

// Span is one task's reconstructed lifecycle.
type Span struct {
	Task     types.TaskID
	Function string
	Node     types.NodeID
	Status   types.TaskStatus
	// Trace is the driver session's trace ID (TaskSpec.TraceID); zero for
	// untraced submissions.
	Trace uint64

	SubmittedNs int64
	ScheduledNs int64
	StartedNs   int64
	FinishedNs  int64
}

// QueueDelay is submit -> scheduled (time spent waiting for deps+resources).
func (s *Span) QueueDelay() time.Duration {
	if s.ScheduledNs == 0 {
		return 0
	}
	return time.Duration(s.ScheduledNs - s.SubmittedNs)
}

// StartDelay is scheduled -> running (dispatch overhead).
func (s *Span) StartDelay() time.Duration {
	if s.StartedNs == 0 || s.ScheduledNs == 0 {
		return 0
	}
	return time.Duration(s.StartedNs - s.ScheduledNs)
}

// ExecTime is running -> finished.
func (s *Span) ExecTime() time.Duration {
	if s.FinishedNs == 0 || s.StartedNs == 0 {
		return 0
	}
	return time.Duration(s.FinishedNs - s.StartedNs)
}

// EndToEnd is submit -> finished.
func (s *Span) EndToEnd() time.Duration {
	if s.FinishedNs == 0 {
		return 0
	}
	return time.Duration(s.FinishedNs - s.SubmittedNs)
}

// Timeline is the reconstructed execution history of a cluster.
type Timeline struct {
	Spans  []Span
	Events []types.Event
	// Data holds harvested data-plane spans (spill, restore, pull chunks,
	// drain migration, exec) the task table cannot see — shipped to the GCS
	// by node heartbeats and merged in by BuildFull.
	Data []metrics.SpanRecord
}

// Build reconstructs the timeline from the control plane.
func Build(ctrl gcs.API) *Timeline {
	tasks, _ := ctrl.ScanTasks(gcs.TaskFilter{})
	tl := &Timeline{Events: ctrl.Events()}
	for _, t := range tasks {
		tl.Spans = append(tl.Spans, Span{
			Task:        t.Spec.ID,
			Function:    t.Spec.Function,
			Node:        t.Node,
			Status:      t.Status,
			Trace:       t.Spec.TraceID,
			SubmittedNs: t.SubmittedNs,
			ScheduledNs: t.ScheduledNs,
			StartedNs:   t.StartedNs,
			FinishedNs:  t.FinishedNs,
		})
	}
	sort.Slice(tl.Spans, func(i, j int) bool { return tl.Spans[i].SubmittedNs < tl.Spans[j].SubmittedNs })
	return tl
}

// BuildFull reconstructs the timeline and, when the control plane stores
// telemetry (gcs.TelemetrySink), merges the harvested data-plane spans:
// spills, restores, pull chunks, drain migrations, executions. Spans that
// carry only an object ID are correlated to the task that produced the
// object via the object table's lineage edge, so one task's whole
// submit→park→pull→schedule→exec→put chain — including I/O the task
// table cannot see — stitches into a single trace.
func BuildFull(ctrl gcs.API) *Timeline {
	tl := Build(ctrl)
	sink, ok := ctrl.(gcs.TelemetrySink)
	if !ok {
		return tl
	}
	spans := sink.Spans()
	if len(spans) == 0 {
		return tl
	}
	// Object -> (producer task, trace) from the object table, keyed by the
	// raw IDs the spans carry; only a span's stitched task is formatted.
	type lineage struct {
		task  types.TaskID
		trace uint64
	}
	traces := make(map[types.TaskID]uint64, len(tl.Spans))
	for _, s := range tl.Spans {
		traces[s.Task] = s.Trace
	}
	byObject := make(map[types.ObjectID]lineage)
	for _, o := range ctrl.Objects() {
		if !o.Producer.IsNil() {
			byObject[o.ID] = lineage{task: o.Producer, trace: traces[o.Producer]}
		}
	}
	for i := range spans {
		sp := &spans[i]
		task := types.TaskID(sp.TaskID)
		if l, ok := byObject[sp.ObjectID]; ok && task.IsNil() {
			task = l.task
			sp.TaskID = task
			if sp.Trace == 0 {
				sp.Trace = l.trace
			}
		}
		if sp.Trace == 0 && !task.IsNil() {
			sp.Trace = traces[task]
		}
		sp.FormatIDs()
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	tl.Data = spans
	return tl
}

// Summary aggregates per-function statistics.
type Summary struct {
	Function  string
	Count     int
	Failed    int
	MeanExec  time.Duration
	MeanE2E   time.Duration
	MeanQueue time.Duration
}

// Summarize groups finished spans by function.
func (tl *Timeline) Summarize() []Summary {
	agg := make(map[string]*Summary)
	sums := make(map[string][3]time.Duration)
	for _, s := range tl.Spans {
		a, ok := agg[s.Function]
		if !ok {
			a = &Summary{Function: s.Function}
			agg[s.Function] = a
		}
		if s.Status == types.TaskFailed {
			a.Failed++
		}
		if s.Status != types.TaskFinished {
			continue
		}
		a.Count++
		acc := sums[s.Function]
		acc[0] += s.ExecTime()
		acc[1] += s.EndToEnd()
		acc[2] += s.QueueDelay()
		sums[s.Function] = acc
	}
	var out []Summary
	for name, a := range agg {
		if a.Count > 0 {
			acc := sums[name]
			a.MeanExec = acc[0] / time.Duration(a.Count)
			a.MeanE2E = acc[1] / time.Duration(a.Count)
			a.MeanQueue = acc[2] / time.Duration(a.Count)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Function < out[j].Function })
	return out
}

// CriticalPathNs estimates the makespan: max finish - min submit over
// finished spans.
func (tl *Timeline) CriticalPathNs() int64 {
	var minSubmit, maxFinish int64
	first := true
	for _, s := range tl.Spans {
		if s.FinishedNs == 0 {
			continue
		}
		if first || s.SubmittedNs < minSubmit {
			minSubmit = s.SubmittedNs
		}
		if s.FinishedNs > maxFinish {
			maxFinish = s.FinishedNs
		}
		first = false
	}
	if first {
		return 0
	}
	return maxFinish - minSubmit
}

// chromeEvent is one Chrome trace-event record ("X" complete events).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`  // microseconds
	Dur  int64          `json:"dur"` // microseconds
	Pid  string         `json:"pid"`
	Tid  string         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// shortID compresses a full hex ID to the same 12-char prefix the types
// package uses for String(), so data-plane spans land on the same Perfetto
// track as the task-table spans they correlate with.
func shortID(prefix, hexID string) string {
	if len(hexID) > 12 {
		hexID = hexID[:12]
	}
	return prefix + "-" + hexID
}

// ExportChromeTrace writes the timeline in Chrome's trace-event JSON format
// (load via chrome://tracing or Perfetto). Each node is a "process"; each
// task renders its queue and exec phases.
func (tl *Timeline) ExportChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	for _, s := range tl.Spans {
		if s.FinishedNs == 0 {
			continue
		}
		pid := s.Node.String()
		tid := s.Task.String()
		if s.ScheduledNs > s.SubmittedNs {
			evs = append(evs, chromeEvent{
				Name: s.Function + " [queued]", Cat: "queue", Ph: "X",
				Ts: s.SubmittedNs / 1e3, Dur: (s.ScheduledNs - s.SubmittedNs) / 1e3,
				Pid: pid, Tid: tid,
			})
		}
		if s.StartedNs > 0 {
			ev := chromeEvent{
				Name: s.Function, Cat: "exec", Ph: "X",
				Ts: s.StartedNs / 1e3, Dur: (s.FinishedNs - s.StartedNs) / 1e3,
				Pid: pid, Tid: tid,
			}
			if s.Trace != 0 {
				ev.Args = map[string]any{"trace": fmt.Sprintf("%016x", s.Trace)}
			}
			evs = append(evs, ev)
		}
	}
	// Harvested data-plane spans (BuildFull): grouped per source node, on
	// the owning task's track when lineage correlation found one, else on
	// a per-object track.
	for _, d := range tl.Data {
		tid := "dataplane"
		switch {
		case d.Task != "":
			tid = shortID("task", d.Task)
		case d.Object != "":
			tid = shortID("obj", d.Object)
		}
		args := make(map[string]any)
		if d.Trace != 0 {
			args["trace"] = fmt.Sprintf("%016x", d.Trace)
		}
		if d.Object != "" {
			args["object"] = shortID("obj", d.Object)
		}
		if d.Detail != "" {
			args["detail"] = d.Detail
		}
		if len(args) == 0 {
			args = nil
		}
		evs = append(evs, chromeEvent{
			Name: d.Name, Cat: d.Cat, Ph: "X",
			Ts: d.StartNs / 1e3, Dur: d.DurNs / 1e3,
			Pid: shortID("node", d.Node), Tid: tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs})
}

// RenderText writes a human-readable profile report.
func (tl *Timeline) RenderText(w io.Writer) {
	fmt.Fprintf(w, "tasks: %d, events: %d, makespan: %v\n",
		len(tl.Spans), len(tl.Events), time.Duration(tl.CriticalPathNs()))
	for _, s := range tl.Summarize() {
		fmt.Fprintf(w, "  %-24s n=%-6d failed=%-4d exec=%-12v queue=%-12v e2e=%v\n",
			s.Function, s.Count, s.Failed, s.MeanExec, s.MeanQueue, s.MeanE2E)
	}
}
