// Package dashboard implements the "Web UI / Debugging Tools / Profiling
// Tools" box of the paper's Figure 3 (R7): an HTTP surface over the
// centralized control plane. Because all system state lives in the control
// plane, the dashboard is a pure reader — it can attach to any running
// cluster without coordination.
package dashboard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/gcs"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/types"
)

// Option customizes the dashboard handler.
type Option func(*handlerOpts)

type handlerOpts struct {
	shardStats func() []gcs.ShardStats
	autoscale  func() autoscale.Status
	pprof      bool
}

// WithShardStats attaches a control-plane shard health source (typically
// gcs.Supervisor.Stats), enabling /api/shards and the overview's shard
// line on sharded-GCS deployments.
func WithShardStats(fn func() []gcs.ShardStats) Option {
	return func(o *handlerOpts) { o.shardStats = fn }
}

// WithAutoscaler attaches an autoscaler status source (typically
// autoscale.Autoscaler.Status), enabling /api/autoscale and the
// overview's elasticity line.
func WithAutoscaler(fn func() autoscale.Status) Option {
	return func(o *handlerOpts) { o.autoscale = fn }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (the -pprof flag on
// cmd/raynode and cmd/dashboard-serving processes). Off by default: the
// profiling endpoints expose stacks and heap contents, so operators opt in.
func WithPprof() Option {
	return func(o *handlerOpts) { o.pprof = true }
}

// Handler serves the dashboard endpoints:
//
//	GET /api/nodes     — node table with liveness and load
//	GET /api/tasks     — task table (status, timing, placement)
//	GET /api/objects   — object table (size, locations, state)
//	GET /api/events    — raw event log
//	GET /api/profile   — per-function summary statistics
//	GET /api/trace     — Chrome trace-event JSON of the whole timeline
//	GET /api/shards    — control-plane shard health (sharded GCS only)
//	GET /api/placement — placement groups (strategy, state, bundle→node map)
//	GET /api/autoscale — autoscaler status (when one is attached)
//	GET /api/jobs      — job table (state, weight, usage, quota headroom)
//	POST /api/drain?node=<hex> — mark a node Draining (rayctl drain)
//	POST /api/stopjob?job=<hex> — begin a job's stop+reclaim (rayctl stop-job)
//	GET /              — plain-text overview
func Handler(ctrl gcs.API, opts ...Option) http.Handler {
	var o handlerOpts
	for _, opt := range opts {
		opt(&o)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/shards", func(w http.ResponseWriter, r *http.Request) {
		if o.shardStats == nil {
			writeJSON(w, []gcs.ShardStats{}) // single-store control plane
			return
		}
		writeJSON(w, o.shardStats())
	})
	mux.HandleFunc("/api/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, nodesView(ctrl))
	})
	// GET /api/tasks lists every task row; /api/tasks?id=<hex> narrows to
	// one task and adds the full transition timestamps (rayctl tasks <id>).
	mux.HandleFunc("/api/tasks", func(w http.ResponseWriter, r *http.Request) {
		if hex := r.URL.Query().Get("id"); hex != "" {
			id, err := types.ParseTaskID(hex)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			st, ok := ctrl.GetTask(id)
			if !ok {
				http.Error(w, "no such task", http.StatusNotFound)
				return
			}
			writeJSON(w, taskDetail(ctrl, st))
			return
		}
		writeJSON(w, tasksView(ctrl))
	})
	mux.HandleFunc("/api/objects", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, objectsView(ctrl))
	})
	mux.HandleFunc("/api/events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, eventsView(ctrl))
	})
	mux.HandleFunc("/api/profile", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, profile.Build(ctrl).Summarize())
	})
	mux.HandleFunc("/api/placement", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, placementView(ctrl))
	})
	mux.HandleFunc("/api/autoscale", func(w http.ResponseWriter, r *http.Request) {
		if o.autoscale == nil {
			writeJSON(w, autoscale.Status{}) // no autoscaler attached
			return
		}
		writeJSON(w, o.autoscale())
	})
	// POST /api/drain?node=<hex> marks a node Draining (the same CAS the
	// autoscaler's scale-down issues); the node runs the drain protocol
	// itself. The one write endpoint on an otherwise read-only surface —
	// it exists so `rayctl drain` needs nothing but the dashboard URL.
	mux.HandleFunc("/api/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		id, err := types.ParseNodeID(r.URL.Query().Get("node"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ok := ctrl.CASNodeState(id, []types.NodeState{types.NodeActive}, types.NodeDraining)
		writeJSON(w, map[string]bool{"ok": ok})
	})
	mux.HandleFunc("/api/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, jobsView(ctrl))
	})
	// POST /api/stopjob?job=<hex> runs the same CAS core.StopJob issues
	// (Running → Stopping); the global scheduler's reclaim pass does the
	// rest. Like /api/drain, this write endpoint exists so `rayctl
	// stop-job` needs nothing but the dashboard URL.
	mux.HandleFunc("/api/stopjob", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		id, err := types.ParseJobID(r.URL.Query().Get("job"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ok := ctrl.CASJobState(id, []types.JobState{types.JobRunning}, types.JobStopping)
		writeJSON(w, map[string]bool{"ok": ok})
	})
	mux.HandleFunc("/api/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = profile.BuildFull(ctrl).ExportChromeTrace(w)
	})
	// GET /metrics — Prometheus text exposition over every node's latest
	// telemetry snapshot (shipped by heartbeats). Empty but valid when the
	// control plane stores no telemetry (sharded client without spans yet,
	// or telemetry disabled).
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WritePrometheus(w, telemetryOf(ctrl))
	})
	// GET /api/metrics[?filter=substr] — the same snapshots as JSON, for
	// rayctl top / rayctl metrics.
	mux.HandleFunc("/api/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, metricsView(ctrl, r.URL.Query().Get("filter")))
	})
	if o.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		overview(ctrl, o, w)
	})
	return mux
}

// telemetryOf adapts the control plane's stored telemetry (when it has
// any) to the exporter's node-snapshot shape.
func telemetryOf(ctrl gcs.API) []metrics.NodeSnapshot {
	sink, ok := ctrl.(gcs.TelemetrySink)
	if !ok {
		return nil
	}
	stored := sink.Telemetry()
	out := make([]metrics.NodeSnapshot, len(stored))
	for i, t := range stored {
		out[i] = metrics.NodeSnapshot{Node: t.Node.String(), AtNs: t.AtNs, Snap: t.Snap}
	}
	return out
}

// MetricRow is one (node, metric, value) triple in /api/metrics.
type MetricRow struct {
	Node   string `json:"node"`
	Name   string `json:"name"`
	Value  int64  `json:"value"`
	P50Ns  int64  `json:"p50_ns,omitempty"`
	P99Ns  int64  `json:"p99_ns,omitempty"`
	IsHist bool   `json:"hist,omitempty"`
}

func metricsView(ctrl gcs.API, filter string) []MetricRow {
	var out []MetricRow
	match := func(name string) bool {
		return filter == "" || strings.Contains(name, filter)
	}
	for _, t := range telemetryOf(ctrl) {
		node := t.Node
		for name, v := range t.Snap.Counters {
			if match(name) {
				out = append(out, MetricRow{Node: node, Name: name, Value: v})
			}
		}
		for name, v := range t.Snap.Gauges {
			if match(name) {
				out = append(out, MetricRow{Node: node, Name: name, Value: v})
			}
		}
		for name, h := range t.Snap.Hists {
			if match(name) {
				out = append(out, MetricRow{
					Node: node, Name: name, Value: int64(h.Count),
					P50Ns: h.Quantile(0.5), P99Ns: h.Quantile(0.99), IsHist: true,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// NodeView is the JSON shape of one node row.
type NodeView struct {
	ID string `json:"id"`
	// IDHex is the full node ID, the form POST /api/drain (rayctl drain)
	// takes.
	IDHex     string          `json:"id_hex"`
	Addr      string          `json:"addr"`
	Alive     bool            `json:"alive"`
	State     string          `json:"state"`
	Total     types.Resources `json:"total"`
	Available types.Resources `json:"available"`
	QueueLen  int             `json:"queue_len"`
	LastSeen  int64           `json:"last_seen_ns"`
	// Object-store memory and spill-tier usage (lifetime subsystem).
	StoreUsed    int64 `json:"store_used_bytes"`
	StoreSpilled int64 `json:"store_spilled_bytes"`
	StoreObjects int   `json:"store_objects"`
	Spills       int64 `json:"spills"`
	Restores     int64 `json:"restores"`
	Reclaimed    int64 `json:"reclaimed"`
	TierEvicted  int64 `json:"tier_evicted"`
}

func nodesView(ctrl gcs.API) []NodeView {
	var out []NodeView
	for _, n := range ctrl.Nodes() {
		out = append(out, NodeView{
			ID: n.ID.String(), IDHex: n.ID.Hex(), Addr: n.Addr, Alive: n.Alive,
			State: n.State.String(),
			Total: n.Total, Available: n.Available,
			QueueLen: n.QueueLen, LastSeen: n.LastSeen,
			StoreUsed: n.Store.UsedBytes, StoreSpilled: n.Store.SpilledBytes,
			StoreObjects: n.Store.Objects, Spills: n.Store.Spills,
			Restores: n.Store.Restores, Reclaimed: n.Store.Reclaimed,
			TierEvicted: n.Store.TierEvicted,
		})
	}
	return out
}

// TaskView is the JSON shape of one task row. Owner is the node whose
// ledger holds the task's authoritative state (DESIGN.md §13); the row is
// the follower table's view, at most a flush interval behind.
type TaskView struct {
	ID string `json:"id"`
	// IDHex is the full task ID, the form /api/tasks?id= (rayctl tasks
	// <id-hex>) takes.
	IDHex    string  `json:"id_hex"`
	Function string  `json:"function"`
	Status   string  `json:"status"`
	Node     string  `json:"node"`
	Owner    string  `json:"owner,omitempty"`
	OwnerSeq uint64  `json:"owner_seq,omitempty"`
	Error    string  `json:"error,omitempty"`
	Retries  int     `json:"retries,omitempty"`
	E2EMs    float64 `json:"e2e_ms"`
	// LastTransitionAgeMs is how long the task has sat in its current
	// status — the first thing to look at for a stuck task.
	LastTransitionAgeMs float64 `json:"last_transition_age_ms"`
}

// TaskDetail is the single-task shape of /api/tasks?id=: the row plus the
// full transition timestamps.
type TaskDetail struct {
	TaskView
	Parent      string `json:"parent,omitempty"`
	Worker      string `json:"worker,omitempty"`
	MaxRetries  int    `json:"max_retries"`
	SubmittedNs int64  `json:"submitted_ns"`
	ScheduledNs int64  `json:"scheduled_ns,omitempty"`
	StartedNs   int64  `json:"started_ns,omitempty"`
	FinishedNs  int64  `json:"finished_ns,omitempty"`
}

func taskView(t types.TaskState, nowNs int64) TaskView {
	var e2e float64
	if t.FinishedNs > 0 {
		e2e = float64(t.FinishedNs-t.SubmittedNs) / 1e6
	}
	var age float64
	if t.LastTransitionNs > 0 && nowNs > t.LastTransitionNs {
		age = float64(nowNs-t.LastTransitionNs) / 1e6
	}
	v := TaskView{
		ID: t.Spec.ID.String(), IDHex: t.Spec.ID.Hex(), Function: t.Spec.Function,
		Status: t.Status.String(), Node: t.Node.String(),
		OwnerSeq: t.OwnerSeq,
		Error:    t.Error, Retries: t.Retries, E2EMs: e2e,
		LastTransitionAgeMs: age,
	}
	if !t.Owner.IsNil() {
		v.Owner = t.Owner.String()
	}
	return v
}

func tasksView(ctrl gcs.API) []TaskView {
	now := ctrl.NowNs()
	var out []TaskView
	tasks, _ := ctrl.ScanTasks(gcs.TaskFilter{})
	for _, t := range tasks {
		out = append(out, taskView(t, now))
	}
	return out
}

func taskDetail(ctrl gcs.API, t types.TaskState) TaskDetail {
	d := TaskDetail{
		TaskView:    taskView(t, ctrl.NowNs()),
		MaxRetries:  t.Spec.MaxRetries,
		SubmittedNs: t.SubmittedNs, ScheduledNs: t.ScheduledNs,
		StartedNs: t.StartedNs, FinishedNs: t.FinishedNs,
	}
	if !t.Spec.Parent.IsNil() {
		d.Parent = t.Spec.Parent.String()
	}
	if !t.Worker.IsNil() {
		d.Worker = t.Worker.String()
	}
	return d
}

// ObjectView is the JSON shape of one object row.
type ObjectView struct {
	ID        string   `json:"id"`
	Size      int64    `json:"size"`
	State     string   `json:"state"`
	Producer  string   `json:"producer"`
	Locations []string `json:"locations"`
	RefCount  int64    `json:"ref_count"`
	SpilledOn []string `json:"spilled_on,omitempty"`
}

func objectsView(ctrl gcs.API) []ObjectView {
	var out []ObjectView
	for _, o := range ctrl.Objects() {
		locs := make([]string, len(o.Locations))
		for i, l := range o.Locations {
			locs[i] = l.String()
		}
		var disk []string
		for _, l := range o.SpilledOn {
			disk = append(disk, l.String())
		}
		out = append(out, ObjectView{
			ID: o.ID.String(), Size: o.Size, State: o.State.String(),
			Producer: o.Producer.String(), Locations: locs,
			RefCount: o.RefCount, SpilledOn: disk,
		})
	}
	return out
}

// PlacementView is the JSON shape of one placement-group row.
type PlacementView struct {
	ID       string            `json:"id"`
	Name     string            `json:"name,omitempty"`
	Strategy string            `json:"strategy"`
	State    string            `json:"state"`
	Bundles  []types.Resources `json:"bundles"`
	// Nodes[i] is the node holding bundle i's reservation (placed groups).
	Nodes     []string `json:"nodes,omitempty"`
	CreatedNs int64    `json:"created_ns"`
	PlacedNs  int64    `json:"placed_ns,omitempty"`
	RemovedNs int64    `json:"removed_ns,omitempty"`
}

func placementView(ctrl gcs.API) []PlacementView {
	var out []PlacementView
	for _, g := range ctrl.PlacementGroups() {
		v := PlacementView{
			ID: g.Spec.ID.String(), Name: g.Spec.Name,
			Strategy: g.Spec.Strategy.String(), State: g.State.String(),
			CreatedNs: g.CreatedNs, PlacedNs: g.PlacedNs, RemovedNs: g.RemovedNs,
		}
		for _, b := range g.Spec.Bundles {
			v.Bundles = append(v.Bundles, b.Resources)
		}
		for _, n := range g.BundleNodes {
			v.Nodes = append(v.Nodes, n.String())
		}
		out = append(out, v)
	}
	return out
}

// JobView is the JSON shape of one job row: the durable record joined
// with the job's live footprint (task counts, queue depth, object bytes)
// and its remaining quota headroom. Headroom fields are -1 when the
// corresponding quota dimension is unlimited.
type JobView struct {
	ID string `json:"id"`
	// IDHex is the full job ID, the form POST /api/stopjob (rayctl
	// stop-job) takes.
	IDHex  string `json:"id_hex"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Weight int    `json:"weight"`
	// Quota ceilings (zero = unlimited).
	MaxLiveTasks   int   `json:"max_live_tasks,omitempty"`
	MaxQueueDepth  int   `json:"max_queue_depth,omitempty"`
	MaxObjectBytes int64 `json:"max_object_bytes,omitempty"`
	CreatedNs      int64 `json:"created_ns"`
	StoppedNs      int64 `json:"stopped_ns,omitempty"`
	PurgedNs       int64 `json:"purged_ns,omitempty"`
	// Live footprint, attributed the same way admission meters it.
	LiveTasks   int   `json:"live_tasks"`
	QueueDepth  int   `json:"queue_depth"`
	ObjectBytes int64 `json:"object_bytes"`
	// TotalTasks counts every task record still attributed to the job,
	// terminal ones included (drops to 0 once the purge tombstones them).
	TotalTasks int `json:"total_tasks"`
	// Remaining admission headroom per quota dimension; -1 = unlimited.
	LiveHeadroom  int   `json:"live_headroom"`
	QueueHeadroom int   `json:"queue_headroom"`
	BytesHeadroom int64 `json:"bytes_headroom"`
}

func jobsView(ctrl gcs.API) []JobView {
	records := ctrl.Jobs()
	if len(records) == 0 {
		return nil
	}
	tasks, _ := ctrl.ScanTasks(gcs.TaskFilter{})
	usage := jobs.ComputeUsage(tasks, ctrl.Objects())
	totals := make(map[types.JobID]int)
	for _, t := range tasks {
		if !t.Spec.Job.IsNil() {
			totals[t.Spec.Job]++
		}
	}
	out := make([]JobView, 0, len(records))
	for _, j := range records {
		u := usage[j.Spec.ID]
		v := JobView{
			ID: j.Spec.ID.String(), IDHex: j.Spec.ID.Hex(),
			Name: j.Spec.Name, State: j.State.String(), Weight: j.Spec.FairWeight(),
			MaxLiveTasks: j.Spec.Quota.MaxLiveTasks, MaxQueueDepth: j.Spec.Quota.MaxQueueDepth,
			MaxObjectBytes: j.Spec.Quota.MaxObjectBytes,
			CreatedNs:      j.CreatedNs, StoppedNs: j.StoppedNs, PurgedNs: j.PurgedNs,
			LiveTasks: u.LiveTasks, QueueDepth: u.QueueDepth, ObjectBytes: u.ObjectBytes,
			TotalTasks:   totals[j.Spec.ID],
			LiveHeadroom: -1, QueueHeadroom: -1, BytesHeadroom: -1,
		}
		if q := j.Spec.Quota.MaxLiveTasks; q > 0 {
			v.LiveHeadroom = max(0, q-u.LiveTasks)
		}
		if q := j.Spec.Quota.MaxQueueDepth; q > 0 {
			v.QueueHeadroom = max(0, q-u.QueueDepth)
		}
		if q := j.Spec.Quota.MaxObjectBytes; q > 0 {
			v.BytesHeadroom = max(0, q-u.ObjectBytes)
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].CreatedNs < out[k].CreatedNs })
	return out
}

// EventView is the JSON shape of one event-log entry.
type EventView struct {
	TimeNs int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	Task   string `json:"task,omitempty"`
	Object string `json:"object,omitempty"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func eventsView(ctrl gcs.API) []EventView {
	var out []EventView
	for _, e := range ctrl.Events() {
		ev := EventView{TimeNs: e.TimeNs, Kind: e.Kind, Detail: e.Detail}
		if !e.Task.IsNil() {
			ev.Task = e.Task.String()
		}
		if !e.Object.IsNil() {
			ev.Object = e.Object.String()
		}
		if !e.Node.IsNil() {
			ev.Node = e.Node.String()
		}
		out = append(out, ev)
	}
	return out
}

// recordLifetimeRow is the overview's one line on record lifetime (DESIGN.md
// §17): how big the tables are, how much of that is dead records waiting
// out their grace (or, if it only grows, leaked: dead with nobody left to
// propose them), what the nodes have retired, what they have queued, why
// proposals were refused, and what their owners collected at home without
// the tables ever holding it.
func recordLifetimeRow(w io.Writer, tasks int, objects []types.ObjectInfo, nodes []metrics.NodeSnapshot) {
	dead := 0
	for i := range objects {
		if objects[i].Dead() {
			dead++
		}
	}
	var c struct{ tasks, objects, queued, oldestMs, referenced, located, pinned, live, dropped, homeTasks, homeObjects int64 }
	for _, n := range nodes {
		c.tasks += n.Snap.Counters["lifetime.retire.tasks"]
		c.objects += n.Snap.Counters["lifetime.retire.objects"]
		c.queued += n.Snap.Gauges["lifetime.retire.queued"]
		c.oldestMs = max(c.oldestMs, n.Snap.Gauges["lifetime.retire.oldest_ms"])
		c.referenced += n.Snap.Counters["lifetime.retire.refused;cause=referenced"]
		c.located += n.Snap.Counters["lifetime.retire.refused;cause=located"]
		c.pinned += n.Snap.Counters["lifetime.retire.refused;cause=pinned"]
		c.live += n.Snap.Counters["lifetime.retire.refused;cause=producer-live"]
		c.dropped += n.Snap.Counters["lifetime.retire.dropped"]
		c.homeTasks += n.Snap.Counters["lifetime.home.tasks"]
		c.homeObjects += n.Snap.Counters["lifetime.home.objects"]
	}
	fmt.Fprintf(w, "records: %d tasks, %d objects live (%d dead); retired %d tasks, %d objects; proposals: %d queued, oldest %dms; "+
		"refused: referenced=%d located=%d pinned=%d producer-live=%d (dropped %d); collected at home: %d tasks, %d objects\n",
		tasks, len(objects), dead, c.tasks, c.objects, c.queued, c.oldestMs, c.referenced, c.located, c.pinned, c.live, c.dropped,
		c.homeTasks, c.homeObjects)
}

func overview(ctrl gcs.API, o handlerOpts, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if o.shardStats != nil {
		stats := o.shardStats()
		alive := 0
		var restarts int64
		for _, s := range stats {
			if s.Alive {
				alive++
			}
			restarts += s.Restarts
		}
		fmt.Fprintf(w, "control plane: %d shards (%d alive, %d restarts)\n", len(stats), alive, restarts)
	}
	nodes := ctrl.Nodes()
	alive, draining := 0, 0
	for _, n := range nodes {
		if n.Alive {
			alive++
			if n.State == types.NodeDraining {
				draining++
			}
		}
	}
	tasks, _ := ctrl.ScanTasks(gcs.TaskFilter{})
	byStatus := map[types.TaskStatus]int{}
	for _, t := range tasks {
		byStatus[t.Status]++
	}
	fmt.Fprintf(w, "cluster overview @ %v\n", time.Duration(ctrl.NowNs()))
	fmt.Fprintf(w, "nodes: %d (%d alive, %d draining)\n", len(nodes), alive, draining)
	if o.autoscale != nil {
		st := o.autoscale()
		fmt.Fprintf(w, "autoscaler: %d active, %d draining, backlog %d, %d scale-ups, %d drains (%d done, %d rolled back)\n",
			st.Active, st.Draining, st.Backlog, st.ScaleUps, st.Drains, st.Drained, st.RolledBack)
	}
	fmt.Fprintf(w, "tasks: %d total", len(tasks))
	for _, st := range []types.TaskStatus{types.TaskPending, types.TaskQueued, types.TaskScheduled, types.TaskRunning, types.TaskFinished, types.TaskLost, types.TaskFailed} {
		if n := byStatus[st]; n > 0 {
			fmt.Fprintf(w, "  %s=%d", st, n)
		}
	}
	fmt.Fprintln(w)
	// Dispatched tasks, summed over the nodes' latest heartbeat telemetry;
	// omitted when no node has reported yet.
	var dispatched int64
	for _, snap := range telemetryOf(ctrl) {
		dispatched += snap.Snap.Counters["scheduler.tasks.dispatched"]
	}
	if dispatched > 0 {
		fmt.Fprintf(w, "dispatch: %d\n", dispatched)
	}
	var memUsed, memSpilled, reclaimed int64
	for _, n := range nodes {
		if n.Alive {
			memUsed += n.Store.UsedBytes
			memSpilled += n.Store.SpilledBytes
			reclaimed += n.Store.Reclaimed
		}
	}
	fmt.Fprintf(w, "object memory: %d B in memory, %d B spilled, %d reclaimed\n",
		memUsed, memSpilled, reclaimed)
	objects := ctrl.Objects()
	fmt.Fprintf(w, "objects: %d, events: %d\n", len(objects), len(ctrl.Events()))
	recordLifetimeRow(w, len(tasks), objects, telemetryOf(ctrl))
	if jobRecords := ctrl.Jobs(); len(jobRecords) > 0 {
		byState := map[types.JobState]int{}
		for _, j := range jobRecords {
			byState[j.State]++
		}
		fmt.Fprintf(w, "jobs: %d total", len(jobRecords))
		for _, st := range []types.JobState{types.JobRunning, types.JobStopping, types.JobStopped, types.JobPurged} {
			if n := byState[st]; n > 0 {
				fmt.Fprintf(w, "  %s=%d", st, n)
			}
		}
		fmt.Fprintln(w)
	}
	if groups := ctrl.PlacementGroups(); len(groups) > 0 {
		byState := map[types.PlacementGroupState]int{}
		for _, g := range groups {
			byState[g.State]++
		}
		fmt.Fprintf(w, "placement groups: %d total", len(groups))
		for _, st := range []types.PlacementGroupState{types.GroupPending, types.GroupPlacing, types.GroupPlaced, types.GroupRemoved} {
			if n := byState[st]; n > 0 {
				fmt.Fprintf(w, "  %s=%d", st, n)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nendpoints: /api/nodes /api/tasks /api/objects /api/events /api/profile /api/trace /api/shards /api/placement /api/autoscale /api/jobs /api/metrics /metrics")
}
