package dashboard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/types"
)

func dashboardCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	reg := core.NewRegistry()
	ident := core.Register1(reg, "ident", func(tc *core.TaskContext, x int) (int, error) {
		return x, nil
	})
	c, err := cluster.New(cluster.Config{Nodes: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d := c.Driver()
	ref, err := ident.Remote(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := core.Get(ctx, d, ref); err != nil {
		t.Fatal(err)
	}
	return c
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	c := dashboardCluster(t)
	srv := httptest.NewServer(Handler(c.Ctrl))
	defer srv.Close()

	t.Run("nodes", func(t *testing.T) {
		code, body := get(t, srv, "/api/nodes")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var nodes []NodeView
		if err := json.Unmarshal([]byte(body), &nodes); err != nil {
			t.Fatal(err)
		}
		if len(nodes) != 2 {
			t.Fatalf("nodes = %d", len(nodes))
		}
		for _, n := range nodes {
			if !n.Alive || n.Addr == "" {
				t.Fatalf("node view: %+v", n)
			}
		}
	})
	t.Run("tasks", func(t *testing.T) {
		// The terminal record and the ownership columns (DESIGN.md §13: the
		// owner node plus the full ID hex for the detail endpoint) may lag
		// the owner's ledger by a flush interval, so poll until the follower
		// table shows the settled row.
		var tasks []TaskView
		deadline := time.Now().Add(10 * time.Second)
		for {
			code, body := get(t, srv, "/api/tasks")
			if code != 200 {
				t.Fatalf("status %d", code)
			}
			if err := json.Unmarshal([]byte(body), &tasks); err != nil {
				t.Fatal(err)
			}
			if len(tasks) == 1 && tasks[0].Status == "FINISHED" &&
				tasks[0].Owner != "" && len(tasks[0].IDHex) == 2*types.IDSize {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("task row never settled: %+v", tasks)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if tasks[0].Function != "ident" {
			t.Fatalf("tasks = %+v", tasks)
		}
		if tasks[0].E2EMs <= 0 {
			t.Fatal("missing timing")
		}
	})
	t.Run("task-detail", func(t *testing.T) {
		_, body := get(t, srv, "/api/tasks")
		var tasks []TaskView
		if err := json.Unmarshal([]byte(body), &tasks); err != nil {
			t.Fatal(err)
		}
		code, body := get(t, srv, "/api/tasks?id="+tasks[0].IDHex)
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var d TaskDetail
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatal(err)
		}
		if d.Function != "ident" || d.Status != "FINISHED" || d.SubmittedNs <= 0 || d.FinishedNs <= 0 {
			t.Fatalf("task detail = %+v", d)
		}
		if code, _ := get(t, srv, "/api/tasks?id=zzzz"); code != 400 {
			t.Fatalf("bad id: status %d, want 400", code)
		}
		if code, _ := get(t, srv, "/api/tasks?id="+strings.Repeat("00", types.IDSize)); code != 404 {
			t.Fatalf("unknown id: status %d, want 404", code)
		}
	})
	t.Run("objects", func(t *testing.T) {
		code, body := get(t, srv, "/api/objects")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var objs []ObjectView
		if err := json.Unmarshal([]byte(body), &objs); err != nil {
			t.Fatal(err)
		}
		if len(objs) == 0 {
			t.Fatal("no objects")
		}
	})
	t.Run("events", func(t *testing.T) {
		code, body := get(t, srv, "/api/events")
		if code != 200 || !strings.Contains(body, "submit") {
			t.Fatalf("events: %d %q", code, body[:min(len(body), 200)])
		}
	})
	t.Run("profile", func(t *testing.T) {
		code, body := get(t, srv, "/api/profile")
		if code != 200 || !strings.Contains(body, "ident") {
			t.Fatalf("profile: %d", code)
		}
	})
	t.Run("trace", func(t *testing.T) {
		code, body := get(t, srv, "/api/trace")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var parsed map[string]any
		if err := json.Unmarshal([]byte(body), &parsed); err != nil {
			t.Fatal(err)
		}
		if _, ok := parsed["traceEvents"]; !ok {
			t.Fatal("trace missing traceEvents")
		}
	})
	t.Run("overview", func(t *testing.T) {
		code, body := get(t, srv, "/")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		for _, want := range []string{"nodes: 2", "tasks: 1", "FINISHED=1", "records: 1 tasks, ", "proposals: 0 queued", "; collected at home: "} {
			if !strings.Contains(body, want) {
				t.Fatalf("overview missing %q:\n%s", want, body)
			}
		}
	})
	t.Run("404", func(t *testing.T) {
		code, _ := get(t, srv, "/nope")
		if code != 404 {
			t.Fatalf("status %d", code)
		}
	})
	t.Run("shards-single-store", func(t *testing.T) {
		code, body := get(t, srv, "/api/shards")
		if code != 200 || strings.TrimSpace(body) != "[]" {
			t.Fatalf("single-store shard view: %d %q", code, body)
		}
	})
}

// TestRunningTaskIsVisible: a task born on a node reaches the task table
// once its birth is older than types.BirthBound, so one that runs for
// 200 ms is shown RUNNING by GetTask and by /api/tasks while it runs.
func TestRunningTaskIsVisible(t *testing.T) {
	const runFor = 200 * time.Millisecond
	reg := core.NewRegistry()
	done := make(chan struct{})
	reg.Register("long", func(*core.TaskContext, [][]byte) ([][]byte, error) {
		time.Sleep(runFor)
		close(done)
		return [][]byte{nil}, nil
	})
	c, err := cluster.New(cluster.Config{Nodes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	srv := httptest.NewServer(Handler(c.Ctrl))
	defer srv.Close()
	ref, err := c.Driver().Submit1(core.Call{Function: "long"})
	if err != nil {
		t.Fatal(err)
	}
	shown := func() bool {
		if st, ok := c.Ctrl.GetTask(ref.Task); !ok || st.Status != types.TaskRunning {
			return false
		}
		var tasks []TaskView
		if _, body := get(t, srv, "/api/tasks"); json.Unmarshal([]byte(body), &tasks) != nil {
			return false
		}
		for _, v := range tasks {
			if v.IDHex == ref.Task.Hex() && v.Status == "RUNNING" {
				return true
			}
		}
		return false
	}
	for !shown() {
		select {
		case <-done:
			t.Fatalf("the task ran for %v and was never shown RUNNING", runFor)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestRecordLifetimeRowCountsHomeCollection: the records row adds up what
// every node collected at home beside what the nodes retired.
func TestRecordLifetimeRowCountsHomeCollection(t *testing.T) {
	snap := func(tasks, objects, retired int64) metrics.NodeSnapshot {
		return metrics.NodeSnapshot{Snap: metrics.Snapshot{Counters: map[string]int64{
			"lifetime.home.tasks": tasks, "lifetime.home.objects": objects, "lifetime.retire.tasks": retired,
		}}}
	}
	var b strings.Builder
	recordLifetimeRow(&b, 0, nil, []metrics.NodeSnapshot{snap(3, 4, 1), snap(2, 2, 0)})
	for _, want := range []string{"retired 1 tasks, ", "; collected at home: 5 tasks, 6 objects\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("records row missing %q: %q", want, b.String())
		}
	}
}

// TestShardView exercises /api/shards and the overview shard line against
// a sharded control plane, across a shard kill+restart.
func TestShardView(t *testing.T) {
	reg := core.NewRegistry()
	c, err := cluster.New(cluster.Config{
		Nodes:          1,
		Registry:       reg,
		GCSShards:      2,
		GCSAutoRestart: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	srv := httptest.NewServer(Handler(c.API, WithShardStats(c.Super.Stats)))
	defer srv.Close()

	var shards []gcs.ShardStats
	code, body := get(t, srv, "/api/shards")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || !shards[0].Alive || !shards[1].Alive {
		t.Fatalf("shard view: %+v", shards)
	}

	c.Super.KillShard(1)
	if err := c.Super.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, srv, "/api/shards")
	if err := json.Unmarshal([]byte(body), &shards); err != nil {
		t.Fatal(err)
	}
	if shards[1].Incarnation != 2 || shards[1].Restarts != 1 {
		t.Fatalf("restart not reflected: %+v", shards[1])
	}

	_, overview := get(t, srv, "/")
	if !strings.Contains(overview, "control plane: 2 shards (2 alive, 1 restarts)") {
		t.Fatalf("overview missing shard line:\n%s", overview)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPlacementView exercises /api/placement and the overview's
// placement-group line.
func TestPlacementView(t *testing.T) {
	c := dashboardCluster(t)
	srv := httptest.NewServer(Handler(c.Ctrl))
	defer srv.Close()

	d := c.Driver()
	pg, err := d.CreatePlacementGroup("dash", types.StrategyPack, []types.Resources{types.CPU(2), types.CPU(2)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pg.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, srv, "/api/placement")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var rows []PlacementView
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].State != "PLACED" || rows[0].Strategy != "PACK" ||
		len(rows[0].Bundles) != 2 || len(rows[0].Nodes) != 2 || rows[0].Name != "dash" {
		t.Fatalf("bad placement view: %+v", rows)
	}

	_, overview := get(t, srv, "/")
	if !strings.Contains(overview, "placement groups: 1 total") || !strings.Contains(overview, "PLACED=1") {
		t.Fatalf("overview missing placement line:\n%s", overview)
	}
}

// TestAutoscaleAndDrainEndpoints covers the elasticity surface: the node
// view carries drain state + full ID hex, /api/autoscale round-trips a
// status source, and POST /api/drain drives the node-table CAS (GET is
// refused; the CAS reports a loser).
func TestAutoscaleAndDrainEndpoints(t *testing.T) {
	c := dashboardCluster(t)
	h := Handler(c.API, WithAutoscaler(func() autoscale.Status {
		return autoscale.Status{Active: 2, ScaleUps: 3, LastAction: "scale-up to 2 nodes"}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Node view: state + full hex.
	resp, err := http.Get(srv.URL + "/api/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodes []NodeView
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes) != 2 {
		t.Fatalf("want 2 nodes, got %d", len(nodes))
	}
	for _, n := range nodes {
		if n.State != "ACTIVE" || len(n.IDHex) != 2*types.IDSize {
			t.Fatalf("bad node view: %+v", n)
		}
	}

	// Autoscaler status passthrough.
	resp, err = http.Get(srv.URL + "/api/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	var st autoscale.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Active != 2 || st.ScaleUps != 3 || st.LastAction == "" {
		t.Fatalf("bad autoscale status: %+v", st)
	}

	// Drain: GET refused, POST wins once, the loser reports ok=false.
	victim := nodes[1].IDHex
	if resp, err = http.Get(srv.URL + "/api/drain?node=" + victim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET drain: HTTP %d, want 405", resp.StatusCode)
	}
	post := func() bool {
		resp, err := http.Post(srv.URL+"/api/drain?node="+victim, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			OK bool `json:"ok"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.OK
	}
	if !post() {
		t.Fatal("first drain POST must win the CAS")
	}
	id, err := types.ParseNodeID(victim)
	if err != nil {
		t.Fatal(err)
	}
	waitState := func(want types.NodeState, within time.Duration) types.NodeState {
		deadline := time.Now().Add(within)
		for {
			info, _ := c.API.GetNode(id)
			if info.State == want || time.Now().After(deadline) {
				return info.State
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The empty-store node drains to completion quickly; a second POST can
	// race anywhere in Draining→Drained and must simply never report a
	// fresh CAS win.
	if post() {
		t.Fatal("second drain POST must lose (node no longer Active)")
	}
	if got := waitState(types.NodeDrained, 10*time.Second); got != types.NodeDrained {
		t.Fatalf("drained node state = %v, want DRAINED", got)
	}
}

// TestJobsEndpoints covers the multi-tenancy surface (DESIGN.md §14): the
// job table row joins the durable record with live usage and quota
// headroom, the overview gains a jobs line, and POST /api/stopjob drives
// the same Running→Stopping CAS core.StopJob issues (GET refused, second
// POST loses).
func TestJobsEndpoints(t *testing.T) {
	c := dashboardCluster(t)
	srv := httptest.NewServer(Handler(c.Ctrl))
	defer srv.Close()

	d := c.Driver()
	job, err := d.CreateJob("dash-tenant", 3, types.JobQuota{MaxLiveTasks: 8})
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, srv, "/api/jobs")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var rows []JobView
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("jobs = %+v", rows)
	}
	j := rows[0]
	if j.Name != "dash-tenant" || j.State != "RUNNING" || j.Weight != 3 ||
		j.IDHex != job.ID.Hex() || j.MaxLiveTasks != 8 {
		t.Fatalf("job view: %+v", j)
	}
	if j.LiveHeadroom != 8 || j.QueueHeadroom != -1 || j.BytesHeadroom != -1 {
		t.Fatalf("headroom: %+v", j)
	}

	_, overview := get(t, srv, "/")
	if !strings.Contains(overview, "jobs: 1 total") || !strings.Contains(overview, "RUNNING=1") {
		t.Fatalf("overview missing jobs line:\n%s", overview)
	}

	// Stop: GET refused, first POST wins the CAS, the loser reports ok=false.
	resp, err := http.Get(srv.URL + "/api/stopjob?job=" + job.ID.Hex())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET stopjob: HTTP %d, want 405", resp.StatusCode)
	}
	post := func() bool {
		resp, err := http.Post(srv.URL+"/api/stopjob?job="+job.ID.Hex(), "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			OK bool `json:"ok"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.OK
	}
	if !post() {
		t.Fatal("first stopjob POST must win the CAS")
	}
	if post() {
		t.Fatal("second stopjob POST must lose (job no longer Running)")
	}

	// The reclaim pass commits Stopped; the row reflects it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, srv, "/api/jobs")
		if err := json.Unmarshal([]byte(body), &rows); err != nil {
			t.Fatal(err)
		}
		if len(rows) == 1 && rows[0].State == "STOPPED" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job row never reached STOPPED: %+v", rows)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsEndpointFamilies drives a sharded cluster through a
// spill-heavy cross-node workload and asserts one scrape of /metrics
// covers every instrumented subsystem: scheduler, objectstore, gcs,
// lifetime, and autoscale metric families, rendered as valid Prometheus
// text with per-node labels.
func TestMetricsEndpointFamilies(t *testing.T) {
	reg := core.NewRegistry()
	blob := core.Register1(reg, "blob", func(tc *core.TaskContext, n int) ([]byte, error) {
		return make([]byte, 8<<10), nil
	})
	c, err := cluster.New(cluster.Config{
		Nodes:          2,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		GCSShards:      2,
		SpillThreshold: cluster.SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	// Gauges land in node 0's registry at construction, so the autoscale
	// family ships with that node's heartbeats like everything else.
	as := autoscale.New(autoscale.Config{Ctrl: c.API, Metrics: c.Node(0).Metrics()})
	as.Start()
	t.Cleanup(as.Stop)

	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Round-robin placement births half the blobs remotely; the driver's
	// Gets pull them across nodes, and the zero spill threshold pushes
	// every put through the spill path.
	for i := 0; i < 8; i++ {
		ref, err := blob.Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Get(ctx, d, ref); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(Handler(c.API))
	defer srv.Close()
	want := []string{"scheduler_", "scheduler_waiting_objects", "scheduler_tasks_parked", "objectstore_", "gcs_", "lifetime_", "autoscale_",
		`lifetime_ledger_unflushed{ledger="refs"`, `lifetime_ledger_unflushed{ledger="tasks"`,
		`lifetime_ledger_parked{ledger="refs"`, `lifetime_ledger_parked{ledger="tasks"`}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body := string(raw)
		missing := ""
		for _, fam := range want {
			if !strings.Contains(body, fam) {
				missing = fam
				break
			}
		}
		if missing == "" {
			if !strings.Contains(body, "# TYPE") || !strings.Contains(body, `node="`) {
				t.Fatalf("not Prometheus text exposition:\n%.400s", body)
			}
			if !strings.Contains(body, "_bucket{") {
				t.Fatal("no histogram series exported")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("family %q never appeared in /metrics:\n%.1000s", missing, body)
		}
		time.Sleep(20 * time.Millisecond) // next heartbeat ships the snapshots
	}
}
