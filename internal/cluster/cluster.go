// Package cluster bootstraps complete clusters: N nodes, a sharded control
// plane, one or more global schedulers, and a driver client — the whole of
// the paper's Figure 3 in one call. The default mode is in-process (nodes
// as goroutine collections, network with injected hop latency), which is
// what the test suite and benchmark harness use; cmd/raynode assembles the
// same pieces across OS processes over TCP.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/node"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config describes an in-process cluster.
type Config struct {
	// Nodes is the node count (default 1).
	Nodes int
	// NodeResources is each node's capacity (default {CPU:8}).
	NodeResources types.Resources
	// PerNodeResources overrides NodeResources per index when non-nil
	// (heterogeneous clusters, R4).
	PerNodeResources []types.Resources
	// Shards is the control-plane shard count (default 8). With GCSShards
	// unset this is the single in-process store's internal kv striping;
	// with GCSShards set it is each shard service's internal striping.
	Shards int
	// GCSShards, when positive, runs the control plane as that many
	// independently-failing shard services with per-shard WAL/snapshot
	// durability, supervised for restart, and routes every component
	// through versioned client-side shard maps. Zero keeps the single
	// in-process store (the pre-sharding deployment).
	GCSShards int
	// GCSDataDir holds each control-plane shard's snapshot and WAL when
	// GCSShards is set. Empty means a cluster-owned temp dir, removed at
	// Shutdown — kill/restart within one cluster still recovers from it.
	GCSDataDir string
	// GCSAutoRestart is the supervisor's restart-check interval for dead
	// control-plane shards. Zero selects 20ms when sharded; negative
	// disables auto-restart (tests drive KillShard/RestartShard manually).
	GCSAutoRestart time.Duration
	// HopLatency is the one-way network delay between nodes (default 0).
	HopLatency time.Duration
	// SpillThreshold is each local scheduler's backlog bound before
	// spilling to the global scheduler. Default: SpillNever for single-node
	// clusters, 2x the node's CPU count otherwise.
	SpillThreshold *int
	// StoreCapacity bounds each node's object store; 0 = unlimited.
	StoreCapacity int64
	// SpillDir, when set, enables each node's disk spill tier; node i
	// spills into SpillDir/node-i. Empty disables spilling.
	SpillDir string
	// Pull tunes the chunked pull protocol (zero value = defaults).
	Pull lifetime.PullConfig
	// GlobalPolicy selects the placement policy (default locality-aware).
	GlobalPolicy scheduler.Policy
	// GlobalSchedulers is how many global scheduler instances run
	// (default 1; the architecture allows "one or more").
	GlobalSchedulers int
	// Registry holds the remote functions every node's workers can run.
	Registry *core.Registry
	// DisableEventLog turns off control-plane event logging (E13 measures
	// the difference).
	DisableEventLog bool
	// JobGrace is how long a Stopped job's task and object records survive
	// before the purge pass tombstones them (DESIGN.md §14). Zero selects
	// the scheduler default; negative disables purging.
	JobGrace time.Duration
}

// heartbeatInterval is how often each node of an in-process cluster
// reports its load.
const heartbeatInterval = 20 * time.Millisecond

// Cluster is a running in-process cluster.
type Cluster struct {
	// Ctrl is the single in-process control plane; nil when the cluster
	// runs a sharded control plane (use API instead).
	Ctrl *gcs.Store
	// API is the control-plane surface for inspection and tests: Ctrl in
	// single-store mode, a dedicated sharded client otherwise.
	API gcs.API
	// Super supervises the sharded control plane; nil in single-store mode.
	Super   *gcs.Supervisor
	Network *transport.Inproc
	Globals []*scheduler.Global

	cfg          Config
	nodes        []*node.Node
	shardClients []*gcs.Sharded
	gcsTmpDir    string

	mu sync.Mutex
	// calls delivers the global schedulers' calls to the nodes.
	calls *node.Caller
	// addMu serializes AddNode calls against each other and against
	// Shutdown (index assignment spans node boot; a node booted after
	// Shutdown's snapshot would leak un-stopped).
	addMu  sync.Mutex
	closed bool // guarded by addMu
}

// New boots a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.NodeResources == nil {
		cfg.NodeResources = types.CPU(8)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: Registry is required")
	}
	if cfg.GlobalSchedulers <= 0 {
		cfg.GlobalSchedulers = 1
	}

	c := &Cluster{
		cfg:     cfg,
		Network: transport.NewInproc(cfg.HopLatency),
	}
	c.calls = node.NewCaller(c.Network)
	if cfg.GCSShards > 0 {
		if err := c.startShardedGCS(cfg); err != nil {
			return nil, err
		}
	} else {
		c.Ctrl = gcs.NewStore(cfg.Shards)
		c.Ctrl.SetEventLogging(!cfg.DisableEventLog)
		c.API = c.Ctrl
	}

	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.AddNode(); err != nil {
			c.Shutdown()
			return nil, err
		}
	}

	// The control plane lives in this process, so its table sizes ship with
	// the first node's telemetry.
	if c.Super != nil {
		gcs.ExportRecords(c.Node(0).Metrics(), c.Super.Records)
	} else {
		gcs.ExportRecords(c.Node(0).Metrics(), c.Ctrl.Records)
	}

	for i := 0; i < cfg.GlobalSchedulers; i++ {
		ctrl, err := c.ctrlClient()
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		g := scheduler.NewGlobal(scheduler.GlobalConfig{
			Ctrl:         ctrl,
			Policy:       cfg.GlobalPolicy,
			Assign:       c.calls.Assign,
			Reserve:      c.calls.Reserve,
			ReleaseGroup: c.calls.ReleaseGroup,
			FailTask:     c.calls.FailTask,
			JobGrace:     cfg.JobGrace,
		})
		g.Start()
		c.Globals = append(c.Globals, g)
	}
	return c, nil
}

// AddNode boots one more node into the running cluster (the elasticity
// primitive the gang tests and the future autoscaler drive). Per-index
// configuration (PerNodeResources, spill subdirectory) follows the node's
// position in join order; calls are serialized so concurrent adds cannot
// claim the same index (and with it the same listen address and spill
// subdirectory).
func (c *Cluster) AddNode() (*node.Node, error) {
	c.addMu.Lock()
	defer c.addMu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("cluster: shut down")
	}
	cfg := c.cfg
	c.mu.Lock()
	i := len(c.nodes)
	c.mu.Unlock()
	res := cfg.NodeResources
	if cfg.PerNodeResources != nil && i < len(cfg.PerNodeResources) && cfg.PerNodeResources[i] != nil {
		res = cfg.PerNodeResources[i]
	}
	spill := spillDefault(cfg, res)
	spillDir := ""
	if cfg.SpillDir != "" {
		spillDir = filepath.Join(cfg.SpillDir, fmt.Sprintf("node-%d", i))
	}
	ctrl, err := c.ctrlClient()
	if err != nil {
		return nil, err
	}
	n, err := node.New(node.Config{
		Resources:         res.Clone(),
		StoreCapacity:     cfg.StoreCapacity,
		SpillDir:          spillDir,
		Pull:              cfg.Pull,
		SpillThreshold:    spill,
		Network:           c.Network,
		ListenAddr:        fmt.Sprintf("node-%d", i),
		Ctrl:              ctrl,
		Registry:          cfg.Registry,
		HeartbeatInterval: heartbeatInterval,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nodes = append(c.nodes, n)
	c.mu.Unlock()
	return n, nil
}

// ProvisionNode implements autoscale.NodeProvisioner: the autoscaler's
// scale-up boots one more in-process node through the same AddNode path
// the gang tests drive.
func (c *Cluster) ProvisionNode() error {
	_, err := c.AddNode()
	return err
}

// DrainNode marks node i Draining through the control plane (the same CAS
// the autoscaler's scale-down issues); the node notices and runs the drain
// protocol itself. Reports whether this call won the transition.
func (c *Cluster) DrainNode(i int) bool {
	return c.API.CASNodeState(c.Node(i).ID(), []types.NodeState{types.NodeActive}, types.NodeDraining)
}

// GCSMapAddr is where an in-process cluster's supervisor serves the shard
// map (sharded mode only).
const GCSMapAddr = "gcs"

// startShardedGCS boots the supervised shard services and the cluster's
// inspection client.
func (c *Cluster) startShardedGCS(cfg Config) error {
	dataDir := cfg.GCSDataDir
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "gcs-shards-*")
		if err != nil {
			return err
		}
		c.gcsTmpDir = dir
		dataDir = dir
	}
	auto := cfg.GCSAutoRestart
	if auto == 0 {
		auto = 20 * time.Millisecond
	} else if auto < 0 {
		auto = 0
	}
	sup, err := gcs.NewSupervisor(gcs.SupervisorConfig{
		Shards:          cfg.GCSShards,
		Network:         c.Network,
		MapAddr:         GCSMapAddr,
		DataDir:         dataDir,
		SubShards:       cfg.Shards,
		AutoRestart:     auto,
		DisableEventLog: cfg.DisableEventLog,
	})
	if err != nil {
		c.removeGCSTmp()
		return err
	}
	c.Super = sup
	api, err := c.ctrlClient()
	if err != nil {
		c.Shutdown()
		return err
	}
	c.API = api
	return nil
}

// ctrlClient returns the control-plane handle for one component: the
// shared in-process store in single-store mode, or a fresh sharded client
// — each component keeps its own connections, shard-map view, and
// resubscription loops, exactly as a separate OS process would.
func (c *Cluster) ctrlClient() (gcs.API, error) {
	if c.Super == nil {
		return c.Ctrl, nil
	}
	cl, err := gcs.NewSharded(gcs.ShardedConfig{Network: c.Network, MapAddr: GCSMapAddr})
	if err != nil {
		return nil, err
	}
	c.shardClients = append(c.shardClients, cl)
	return cl, nil
}

func (c *Cluster) removeGCSTmp() {
	if c.gcsTmpDir != "" {
		os.RemoveAll(c.gcsTmpDir)
		c.gcsTmpDir = ""
	}
}

func spillDefault(cfg Config, res types.Resources) int {
	if cfg.SpillThreshold != nil {
		return *cfg.SpillThreshold
	}
	if cfg.Nodes == 1 {
		return scheduler.SpillNever
	}
	return int(2 * res[types.ResCPU])
}

// SpillThresholdOf is a convenience for building Config.SpillThreshold.
func SpillThresholdOf(v int) *int { return &v }

// Node returns the i-th node.
func (c *Cluster) Node(i int) *node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Driver returns a fresh driver client attached to node 0.
func (c *Cluster) Driver() *core.Client { return core.NewClient(c.Node(0)) }

// DriverOn returns a driver attached to node i.
func (c *Cluster) DriverOn(i int) *core.Client { return core.NewClient(c.Node(i)) }

// KillNode crash-fails node i (fault injection, R6). The control plane
// learns immediately, as if a monitor had detected the missed heartbeats.
func (c *Cluster) KillNode(i int) {
	n := c.Node(i)
	n.Kill()
	c.calls.Forget(n.Addr())
}

// Shutdown stops every component.
func (c *Cluster) Shutdown() {
	c.addMu.Lock()
	c.closed = true // fence AddNode: no node may boot past this point
	c.addMu.Unlock()
	for _, g := range c.Globals {
		g.Stop()
	}
	c.mu.Lock()
	nodes := append([]*node.Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Shutdown()
	}
	c.calls.Close()
	for _, cl := range c.shardClients {
		cl.Close()
	}
	c.shardClients = nil
	if c.Super != nil {
		c.Super.Close()
	}
	c.removeGCSTmp()
}
