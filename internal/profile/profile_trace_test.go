package profile

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/types"
)

// TestChromeExportGolden pins the exact trace-event JSON for a
// hand-constructed timeline: one finished task plus one harvested
// data-plane span correlated to it. Any byte-level drift in the export
// format (field order, id shortening, args) fails here before it breaks
// Perfetto loading.
func TestChromeExportGolden(t *testing.T) {
	task := types.TaskID{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	node := types.NodeID{0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
	obj := types.ObjectID{0xfe, 0xed, 0xfa, 0xce, 0xfe, 0xed}
	tl := &Timeline{
		Spans: []Span{{
			Task: task, Function: "f", Node: node, Status: types.TaskFinished,
			Trace:       0xabc,
			SubmittedNs: 1_000_000, ScheduledNs: 2_000_000,
			StartedNs: 3_000_000, FinishedNs: 5_000_000,
		}},
		Data: []metrics.SpanRecord{{
			Name: "lifetime.pull.chunk", Cat: "pull",
			Task: task.Hex(), Object: obj.Hex(), Trace: 0xabc,
			Node: node.Hex(), StartNs: 3_500_000, DurNs: 200_000,
			Detail: "chunk 0",
		}},
	}
	var buf bytes.Buffer
	if err := tl.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"f [queued]","cat":"queue","ph":"X","ts":1000,"dur":1000,"pid":"node-010203040506","tid":"task-aabbccddeeff"},` +
		`{"name":"f","cat":"exec","ph":"X","ts":3000,"dur":2000,"pid":"node-010203040506","tid":"task-aabbccddeeff","args":{"trace":"0000000000000abc"}},` +
		`{"name":"lifetime.pull.chunk","cat":"pull","ph":"X","ts":3500,"dur":200,"pid":"node-010203040506","tid":"task-aabbccddeeff","args":{"detail":"chunk 0","object":"obj-feedfacefeed","trace":"0000000000000abc"}}` +
		"]}\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestSummarizeEdgeCases checks that unfinished spans contribute nothing
// to the means and failed spans are counted without polluting them.
func TestSummarizeEdgeCases(t *testing.T) {
	tl := &Timeline{Spans: []Span{
		{Function: "f", Status: types.TaskFinished, SubmittedNs: 100, ScheduledNs: 200, StartedNs: 300, FinishedNs: 700},
		{Function: "f", Status: types.TaskFailed, SubmittedNs: 100},
		{Function: "f", Status: types.TaskRunning, SubmittedNs: 100, ScheduledNs: 150, StartedNs: 160},
	}}
	sums := tl.Summarize()
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	s := sums[0]
	if s.Count != 1 || s.Failed != 1 {
		t.Fatalf("count=%d failed=%d, want 1/1", s.Count, s.Failed)
	}
	if s.MeanExec != 400 || s.MeanQueue != 100 || s.MeanE2E != 600 {
		t.Fatalf("means exec=%v queue=%v e2e=%v", s.MeanExec, s.MeanQueue, s.MeanE2E)
	}
}

// TestCriticalPathIgnoresUnfinished checks that running and failed-
// without-finish spans do not stretch the makespan.
func TestCriticalPathIgnoresUnfinished(t *testing.T) {
	tl := &Timeline{Spans: []Span{
		{Status: types.TaskFinished, SubmittedNs: 1000, FinishedNs: 3000},
		{Status: types.TaskRunning, SubmittedNs: 1, StartedNs: 2}, // no finish: ignored
	}}
	if cp := tl.CriticalPathNs(); cp != 2000 {
		t.Fatalf("critical path = %d, want 2000", cp)
	}
	empty := &Timeline{}
	if empty.CriticalPathNs() != 0 {
		t.Fatal("empty timeline should have zero critical path")
	}
}

// TestBuildFullMergesDataPlaneSpans runs a real workload, publishes a
// data-plane span that names only an object, and checks BuildFull
// correlates it to the producing task and its trace ID via the object
// table's lineage edge.
func TestBuildFullMergesDataPlaneSpans(t *testing.T) {
	reg := core.NewRegistry()
	work := core.Register1(reg, "work", func(tc *core.TaskContext, n int) (int, error) {
		return n * 2, nil
	})
	c, err := cluster.New(cluster.Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d := c.Driver()
	r, err := work.Remote(d, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := d.Get(ctx, r.Untyped()); err != nil {
		t.Fatal(err)
	}

	// Lineage edges ride the owner's async ledger (DESIGN.md §13): the
	// object record can exist (from the refcount flush) before its Producer
	// edge lands, so poll until the edge is visible.
	var sink gcs.TelemetrySink = c.Ctrl
	var produced types.ObjectInfo
	settle := time.Now().Add(10 * time.Second)
	for produced.Producer.IsNil() {
		for _, o := range c.Ctrl.Objects() {
			if !o.Producer.IsNil() {
				produced = o
				break
			}
		}
		if produced.Producer.IsNil() {
			if time.Now().After(settle) {
				t.Fatal("no produced object found")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	sink.PublishTelemetry(c.Node(0).ID(), metrics.Snapshot{}, []metrics.SpanRecord{{
		Name: "test.pull.chunk", Cat: "pull",
		ObjectID: produced.ID, Node: c.Node(0).ID().Hex(),
		StartNs: c.Ctrl.NowNs(), DurNs: 1000,
	}})

	tl := BuildFull(c.Ctrl)
	var merged *metrics.SpanRecord
	for i := range tl.Data {
		if tl.Data[i].Name == "test.pull.chunk" {
			merged = &tl.Data[i]
			break
		}
	}
	if merged == nil {
		t.Fatal("published span missing from BuildFull timeline")
	}
	if merged.Task != produced.Producer.Hex() {
		t.Fatalf("span task = %q, want producer %q", merged.Task, produced.Producer.Hex())
	}
	var wantTrace uint64
	for _, s := range tl.Spans {
		if s.Task == produced.Producer {
			wantTrace = s.Trace
		}
	}
	if wantTrace == 0 {
		t.Fatal("producer task has no trace ID")
	}
	if merged.Trace != wantTrace {
		t.Fatalf("span trace = %x, want %x", merged.Trace, wantTrace)
	}
}

// TestBuildFullStitchesExecSpans: the exec span a node records for every
// task carries the task's raw ID, shipped as recorded; BuildFull hands it
// back under the task's hex ID and trace, stitched to the task's record.
func TestBuildFullStitchesExecSpans(t *testing.T) {
	reg := core.NewRegistry()
	work := core.Register1(reg, "work", func(tc *core.TaskContext, n int) (int, error) {
		return n + 1, nil
	})
	c, err := cluster.New(cluster.Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d := c.Driver()
	r, err := work.Remote(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := d.Get(ctx, r.Untyped()); err != nil {
		t.Fatal(err)
	}
	task := r.Untyped().Task
	c.Node(0).TaskLedger().LandBirths(task) // the task's record, with its trace

	// Spans ship on heartbeats: poll until the exec span is in.
	var exec *metrics.SpanRecord
	var tl *Timeline
	for deadline := time.Now().Add(10 * time.Second); exec == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no exec span for the task reached the timeline")
		}
		tl = BuildFull(c.Ctrl)
		for i := range tl.Data {
			if sp := &tl.Data[i]; sp.Cat == "exec" && types.TaskID(sp.TaskID) == task {
				exec = sp
			}
		}
	}
	if exec.Task != task.Hex() {
		t.Fatalf("exec span task = %q, want %q", exec.Task, task.Hex())
	}
	var span *Span
	for i := range tl.Spans {
		if tl.Spans[i].Task == task {
			span = &tl.Spans[i]
		}
	}
	if span == nil || span.Trace == 0 {
		t.Fatalf("the task's record in the timeline: %+v", span)
	}
	if exec.Trace != span.Trace {
		t.Fatalf("exec span trace = %x, want the task's %x", exec.Trace, span.Trace)
	}
}
