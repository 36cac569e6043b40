package profile

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/types"
)

// runWorkload executes a few tasks and returns the control plane.
func runWorkload(t *testing.T) gcs.API {
	t.Helper()
	reg := core.NewRegistry()
	work := core.Register1(reg, "work", func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	c, err := cluster.New(cluster.Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d := c.Driver()
	var refs []core.ObjectRef
	for i := 0; i < 5; i++ {
		r, err := work.Remote(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r.Untyped())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := d.Wait(ctx, refs, len(refs), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Owner-side futures resolve before the FINISHED deltas flush to the
	// follower table (DESIGN.md §13); profiling reads the table, so let it
	// catch up before building timelines.
	awaitFinished(t, c.Ctrl, len(refs))
	return c.Ctrl
}

// awaitFinished waits until n tasks read FINISHED from the follower table.
func awaitFinished(t *testing.T, ctrl gcs.API, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		tasks, _ := ctrl.ScanTasks(gcs.TaskFilter{})
		for _, ts := range tasks {
			if ts.Status == types.TaskFinished {
				done++
			}
		}
		if done >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tasks FINISHED in the follower table", done, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBuildTimeline(t *testing.T) {
	ctrl := runWorkload(t)
	tl := Build(ctrl)
	if len(tl.Spans) != 5 {
		t.Fatalf("spans = %d", len(tl.Spans))
	}
	for _, s := range tl.Spans {
		if s.Status != types.TaskFinished {
			t.Fatalf("span %v status %v", s.Task, s.Status)
		}
		if s.ExecTime() < 2*time.Millisecond {
			t.Fatalf("exec time %v below the 2ms sleep", s.ExecTime())
		}
		if s.EndToEnd() < s.ExecTime() {
			t.Fatal("end-to-end below exec time")
		}
		if s.QueueDelay() < 0 || s.StartDelay() < 0 {
			t.Fatal("negative delay")
		}
	}
	if len(tl.Events) == 0 {
		t.Fatal("no events recorded")
	}
}

func TestSummarize(t *testing.T) {
	ctrl := runWorkload(t)
	tl := Build(ctrl)
	sums := tl.Summarize()
	if len(sums) != 1 || sums[0].Function != "work" {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Count != 5 || sums[0].Failed != 0 {
		t.Fatalf("summary = %+v", sums[0])
	}
	if sums[0].MeanExec < 2*time.Millisecond {
		t.Fatalf("mean exec %v", sums[0].MeanExec)
	}
}

func TestCriticalPath(t *testing.T) {
	ctrl := runWorkload(t)
	tl := Build(ctrl)
	cp := tl.CriticalPathNs()
	if cp < int64(2*time.Millisecond) {
		t.Fatalf("critical path %v", time.Duration(cp))
	}
}

func TestChromeTraceExport(t *testing.T) {
	ctrl := runWorkload(t)
	tl := Build(ctrl)
	var buf bytes.Buffer
	if err := tl.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 5 {
		t.Fatalf("trace events = %d", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
}

func TestRenderText(t *testing.T) {
	ctrl := runWorkload(t)
	tl := Build(ctrl)
	var buf bytes.Buffer
	tl.RenderText(&buf)
	out := buf.String()
	for _, want := range []string{"tasks: 5", "work", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyTimeline(t *testing.T) {
	ctrl := gcs.NewStore(1)
	tl := Build(ctrl)
	if tl.CriticalPathNs() != 0 || len(tl.Summarize()) != 0 {
		t.Fatal("empty control plane should yield empty timeline")
	}
	var buf bytes.Buffer
	if err := tl.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}
