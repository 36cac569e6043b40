// Command rayctl inspects a running cluster through the head node's
// dashboard endpoints — the "Debugging Tools / Profiling Tools" of the
// paper's Figure 3 (R7). Because all state lives in the centralized control
// plane, rayctl needs nothing but the dashboard URL.
//
//	rayctl -addr http://127.0.0.1:8265 overview
//	rayctl -addr http://127.0.0.1:8265 nodes
//	rayctl -addr http://127.0.0.1:8265 tasks [task-id-hex]
//	rayctl -addr http://127.0.0.1:8265 objects
//	rayctl -addr http://127.0.0.1:8265 groups
//	rayctl -addr http://127.0.0.1:8265 autoscale
//	rayctl -addr http://127.0.0.1:8265 jobs
//	rayctl -addr http://127.0.0.1:8265 stop-job <job-id-hex>
//	rayctl -addr http://127.0.0.1:8265 drain <node-id-hex>
//	rayctl -addr http://127.0.0.1:8265 profile
//	rayctl -addr http://127.0.0.1:8265 trace -o trace.json   # chrome://tracing
//	rayctl -addr http://127.0.0.1:8265 metrics [filter]      # one-shot metric dump
//	rayctl -addr http://127.0.0.1:8265 top                   # live cluster view (ctrl-C to exit)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/stats"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8265", "dashboard base URL")
	out := flag.String("o", "", "output file (trace subcommand)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval (top subcommand)")
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "overview"
	}

	switch cmd {
	case "overview":
		body := fetch(*addr + "/")
		os.Stdout.Write(body)
	case "nodes":
		printNodes(fetch(*addr + "/api/nodes"))
	case "tasks":
		if id := flag.Arg(1); id != "" {
			printTaskDetail(fetch(*addr + "/api/tasks?id=" + id))
		} else {
			printTasks(fetch(*addr + "/api/tasks"))
		}
	case "objects":
		printObjects(fetch(*addr + "/api/objects"))
	case "shards":
		printShards(fetch(*addr + "/api/shards"))
	case "groups":
		printGroups(fetch(*addr + "/api/placement"))
	case "autoscale":
		printAutoscale(fetch(*addr + "/api/autoscale"))
	case "jobs":
		printJobs(fetch(*addr + "/api/jobs"))
	case "stop-job":
		id := flag.Arg(1)
		if id == "" {
			fatal(fmt.Errorf("usage: rayctl stop-job <job-id-hex> (full hex; see `rayctl jobs`)"))
		}
		stopJob(*addr, id)
	case "drain":
		id := flag.Arg(1)
		if id == "" {
			fatal(fmt.Errorf("usage: rayctl drain <node-id-hex> (full hex; see `rayctl nodes`)"))
		}
		drainNode(*addr, id)
	case "events":
		os.Stdout.Write(fetch(*addr + "/api/events"))
	case "profile":
		printProfile(fetch(*addr + "/api/profile"))
	case "metrics":
		printMetrics(fetch(*addr + "/api/metrics?filter=" + flag.Arg(1)))
	case "top":
		runTop(*addr, *interval)
	case "trace":
		body := fetch(*addr + "/api/trace")
		if *out == "" {
			os.Stdout.Write(body)
			return
		}
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d bytes to %s (open via chrome://tracing)\n", len(body), *out)
	default:
		fmt.Fprintf(os.Stderr, "rayctl: unknown command %q\n", cmd)
		os.Exit(2)
	}
}

func fetch(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != 200 {
		fatal(fmt.Errorf("%s: HTTP %d", url, resp.StatusCode))
	}
	return body
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rayctl: %v\n", err)
	os.Exit(1)
}

func printNodes(body []byte) {
	var nodes []struct {
		ID        string             `json:"id"`
		IDHex     string             `json:"id_hex"`
		Addr      string             `json:"addr"`
		Alive     bool               `json:"alive"`
		State     string             `json:"state"`
		Total     map[string]float64 `json:"total"`
		Available map[string]float64 `json:"available"`
		QueueLen  int                `json:"queue_len"`
	}
	must(json.Unmarshal(body, &nodes))
	tbl := stats.Table{Header: []string{"node", "addr", "alive", "state", "cpu", "gpu", "avail-cpu", "queue", "id-hex"}}
	for _, n := range nodes {
		tbl.AddRow(n.ID, n.Addr, n.Alive, n.State, n.Total["CPU"], n.Total["GPU"], n.Available["CPU"], n.QueueLen, n.IDHex)
	}
	tbl.Render(os.Stdout)
}

func printAutoscale(body []byte) {
	var st struct {
		Nodes      int    `json:"nodes"`
		Active     int    `json:"active"`
		Draining   int    `json:"draining"`
		Backlog    int    `json:"backlog"`
		Idle       bool   `json:"idle"`
		ScaleUps   int64  `json:"scale_ups"`
		Drains     int64  `json:"drains_started"`
		Drained    int64  `json:"drains_completed"`
		RolledBack int64  `json:"drains_rolled_back"`
		LastAction string `json:"last_action"`
	}
	must(json.Unmarshal(body, &st))
	fmt.Printf("nodes: %d (%d active, %d draining)  backlog: %d  idle: %v\n",
		st.Nodes, st.Active, st.Draining, st.Backlog, st.Idle)
	fmt.Printf("scale-ups: %d  drains: %d started, %d completed, %d rolled back\n",
		st.ScaleUps, st.Drains, st.Drained, st.RolledBack)
	if st.LastAction != "" {
		fmt.Printf("last action: %s\n", st.LastAction)
	}
}

// printJobs renders the job table: durable record plus live footprint and
// quota headroom (headroom -1 = that dimension is unlimited).
func printJobs(body []byte) {
	var rows []struct {
		ID          string `json:"id"`
		IDHex       string `json:"id_hex"`
		Name        string `json:"name"`
		State       string `json:"state"`
		Weight      int    `json:"weight"`
		LiveTasks   int    `json:"live_tasks"`
		QueueDepth  int    `json:"queue_depth"`
		ObjectBytes int64  `json:"object_bytes"`
		TotalTasks  int    `json:"total_tasks"`
		LiveHead    int    `json:"live_headroom"`
		QueueHead   int    `json:"queue_headroom"`
		BytesHead   int64  `json:"bytes_headroom"`
	}
	must(json.Unmarshal(body, &rows))
	if len(rows) == 0 {
		fmt.Println("no jobs")
		return
	}
	head := func(n int64) string {
		if n < 0 {
			return "∞"
		}
		return fmt.Sprintf("%d", n)
	}
	tbl := stats.Table{Header: []string{"job", "name", "state", "weight", "live", "queued", "obj-bytes", "tasks", "headroom(live/queue/bytes)", "id-hex"}}
	for _, j := range rows {
		tbl.AddRow(j.ID, j.Name, j.State, j.Weight, j.LiveTasks, j.QueueDepth,
			j.ObjectBytes, j.TotalTasks,
			head(int64(j.LiveHead))+"/"+head(int64(j.QueueHead))+"/"+head(j.BytesHead),
			j.IDHex)
	}
	tbl.Render(os.Stdout)
}

// stopJob POSTs the stop request; the global scheduler's reclaim pass
// buries the job's tasks, drains its objects, and tombstones its records.
func stopJob(addr, idHex string) {
	resp, err := http.Post(addr+"/api/stopjob?job="+idHex, "application/json", nil)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != 200 {
		fatal(fmt.Errorf("stop-job: HTTP %d: %s", resp.StatusCode, body))
	}
	var out struct {
		OK bool `json:"ok"`
	}
	must(json.Unmarshal(body, &out))
	if !out.OK {
		fatal(fmt.Errorf("stop-job CAS lost: job not Running (already stopping, stopped, or unknown)"))
	}
	fmt.Printf("job %s marked STOPPING; the cluster will bury its tasks and reclaim its objects\n", idHex)
}

// drainNode POSTs the drain request; the node runs the protocol itself.
func drainNode(addr, idHex string) {
	resp, err := http.Post(addr+"/api/drain?node="+idHex, "application/json", nil)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != 200 {
		fatal(fmt.Errorf("drain: HTTP %d: %s", resp.StatusCode, body))
	}
	var out struct {
		OK bool `json:"ok"`
	}
	must(json.Unmarshal(body, &out))
	if !out.OK {
		fatal(fmt.Errorf("drain CAS lost: node not Active (already draining, drained, or unknown)"))
	}
	fmt.Printf("node %s marked DRAINING; it will migrate its objects and deregister\n", idHex)
}

// taskRow mirrors dashboard.TaskView.
type taskRow struct {
	ID       string  `json:"id"`
	IDHex    string  `json:"id_hex"`
	Function string  `json:"function"`
	Status   string  `json:"status"`
	Node     string  `json:"node"`
	Owner    string  `json:"owner"`
	OwnerSeq uint64  `json:"owner_seq"`
	Error    string  `json:"error"`
	Retries  int     `json:"retries"`
	E2EMs    float64 `json:"e2e_ms"`
	AgeMs    float64 `json:"last_transition_age_ms"`
}

func printTasks(body []byte) {
	var tasks []taskRow
	must(json.Unmarshal(body, &tasks))
	tbl := stats.Table{Header: []string{"task", "function", "status", "owner", "retries", "age-ms", "e2e-ms", "error", "id-hex"}}
	for _, t := range tasks {
		tbl.AddRow(t.ID, t.Function, t.Status, t.Owner, t.Retries,
			fmt.Sprintf("%.1f", t.AgeMs), fmt.Sprintf("%.3f", t.E2EMs), t.Error, t.IDHex)
	}
	tbl.Render(os.Stdout)
}

// printTaskDetail renders `rayctl tasks <id-hex>`: one task's row plus its
// full transition timeline, from /api/tasks?id=.
func printTaskDetail(body []byte) {
	var d struct {
		taskRow
		Parent      string `json:"parent"`
		Worker      string `json:"worker"`
		MaxRetries  int    `json:"max_retries"`
		SubmittedNs int64  `json:"submitted_ns"`
		ScheduledNs int64  `json:"scheduled_ns"`
		StartedNs   int64  `json:"started_ns"`
		FinishedNs  int64  `json:"finished_ns"`
	}
	must(json.Unmarshal(body, &d))
	fmt.Printf("task %s (%s)\n", d.ID, d.IDHex)
	fmt.Printf("function: %s  status: %s  node: %s\n", d.Function, d.Status, d.Node)
	fmt.Printf("owner: %s  owner-seq: %d  retries: %d/%d  in state for: %.1fms\n",
		d.Owner, d.OwnerSeq, d.Retries, d.MaxRetries, d.AgeMs)
	if d.Parent != "" {
		fmt.Printf("parent: %s\n", d.Parent)
	}
	if d.Worker != "" {
		fmt.Printf("worker: %s\n", d.Worker)
	}
	stamp := func(label string, ns int64) {
		if ns > 0 {
			fmt.Printf("%-10s %d ns\n", label+":", ns)
		}
	}
	stamp("submitted", d.SubmittedNs)
	stamp("scheduled", d.ScheduledNs)
	stamp("started", d.StartedNs)
	stamp("finished", d.FinishedNs)
	if d.Error != "" {
		fmt.Printf("error: %s\n", d.Error)
	}
}

func printObjects(body []byte) {
	var objs []struct {
		ID        string   `json:"id"`
		Size      int64    `json:"size"`
		State     string   `json:"state"`
		Locations []string `json:"locations"`
	}
	must(json.Unmarshal(body, &objs))
	tbl := stats.Table{Header: []string{"object", "size", "state", "copies"}}
	for _, o := range objs {
		tbl.AddRow(o.ID, o.Size, o.State, len(o.Locations))
	}
	tbl.Render(os.Stdout)
}

func printShards(body []byte) {
	var shards []struct {
		Index       int    `json:"index"`
		Addr        string `json:"addr"`
		Alive       bool   `json:"alive"`
		Incarnation int64  `json:"incarnation"`
		Restarts    int64  `json:"restarts"`
		Ops         int64  `json:"kv_ops"`
		WALBytes    int64  `json:"wal_bytes"`
	}
	must(json.Unmarshal(body, &shards))
	if len(shards) == 0 {
		fmt.Println("control plane is a single store (no shard services)")
		return
	}
	tbl := stats.Table{Header: []string{"shard", "addr", "alive", "incarnation", "restarts", "kv-ops", "wal-bytes"}}
	for _, s := range shards {
		tbl.AddRow(s.Index, s.Addr, s.Alive, s.Incarnation, s.Restarts, s.Ops, s.WALBytes)
	}
	tbl.Render(os.Stdout)
}

func printGroups(body []byte) {
	var groups []struct {
		ID       string               `json:"id"`
		Name     string               `json:"name"`
		Strategy string               `json:"strategy"`
		State    string               `json:"state"`
		Bundles  []map[string]float64 `json:"bundles"`
		Nodes    []string             `json:"nodes"`
	}
	must(json.Unmarshal(body, &groups))
	if len(groups) == 0 {
		fmt.Println("no placement groups")
		return
	}
	tbl := stats.Table{Header: []string{"group", "name", "strategy", "state", "bundles", "nodes"}}
	for _, g := range groups {
		tbl.AddRow(g.ID, g.Name, g.Strategy, g.State, len(g.Bundles), fmt.Sprintf("%v", g.Nodes))
	}
	tbl.Render(os.Stdout)
}

func printProfile(body []byte) {
	var sums []struct {
		Function  string `json:"Function"`
		Count     int    `json:"Count"`
		Failed    int    `json:"Failed"`
		MeanExec  int64  `json:"MeanExec"`
		MeanE2E   int64  `json:"MeanE2E"`
		MeanQueue int64  `json:"MeanQueue"`
	}
	must(json.Unmarshal(body, &sums))
	tbl := stats.Table{Header: []string{"function", "count", "failed", "exec-ms", "queue-ms", "e2e-ms"}}
	for _, s := range sums {
		tbl.AddRow(s.Function, s.Count, s.Failed,
			fmt.Sprintf("%.3f", float64(s.MeanExec)/1e6),
			fmt.Sprintf("%.3f", float64(s.MeanQueue)/1e6),
			fmt.Sprintf("%.3f", float64(s.MeanE2E)/1e6))
	}
	tbl.Render(os.Stdout)
}

// metricRow mirrors dashboard.MetricRow.
type metricRow struct {
	Node  string `json:"node"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
	Hist  bool   `json:"hist"`
}

func printMetrics(body []byte) {
	var rows []metricRow
	must(json.Unmarshal(body, &rows))
	if len(rows) == 0 {
		fmt.Println("no metrics (telemetry disabled, or no heartbeat yet)")
		return
	}
	tbl := stats.Table{Header: []string{"node", "metric", "value", "p50", "p99"}}
	for _, r := range rows {
		p50, p99 := "", ""
		if r.Hist {
			p50 = time.Duration(r.P50Ns).String()
			p99 = time.Duration(r.P99Ns).String()
		}
		tbl.AddRow(r.Node, r.Name, r.Value, p50, p99)
	}
	tbl.Render(os.Stdout)
}

// runTop polls the dashboard and redraws a compact cluster view: node
// table plus the hottest per-node scheduler/store/transfer counters.
func runTop(addr string, interval time.Duration) {
	for {
		fmt.Print("\033[H\033[2J") // clear screen, cursor home
		fmt.Printf("rayctl top — %s — %s (ctrl-C to exit)\n\n", addr, time.Now().Format("15:04:05"))
		os.Stdout.Write(fetch(addr + "/"))
		fmt.Println()
		printNodes(fetch(addr + "/api/nodes"))
		fmt.Println()
		var rows []metricRow
		must(json.Unmarshal(fetch(addr+"/api/metrics"), &rows))
		topSet := map[string]bool{
			"scheduler.tasks.dispatched":    true,
			"scheduler.tasks.spilled":       true,
			"objectstore.puts":              true,
			"objectstore.spill.bytes":       true,
			"lifetime.pull.bytes":           true,
			"lifetime.migrated.objects":     true,
			"transport.messages":            true,
			"worker.exec.ns":                true,
			"scheduler.dispatch.latency.ns": true,
		}
		tbl := stats.Table{Header: []string{"node", "metric", "value", "p50", "p99"}}
		shown := 0
		for _, r := range rows {
			if !topSet[r.Name] {
				continue
			}
			p50, p99 := "", ""
			if r.Hist {
				p50 = time.Duration(r.P50Ns).String()
				p99 = time.Duration(r.P99Ns).String()
			}
			tbl.AddRow(r.Node, r.Name, r.Value, p50, p99)
			shown++
		}
		if shown > 0 {
			tbl.Render(os.Stdout)
		} else {
			fmt.Println("(no telemetry yet)")
		}
		time.Sleep(interval)
	}
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}
