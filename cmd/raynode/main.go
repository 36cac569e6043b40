// Command raynode runs one cluster node as an OS process, over real TCP —
// the multi-process deployment of the architecture in the paper's Figure 3.
//
// Head node (control plane + global scheduler + one worker node + web
// dashboard):
//
//	raynode -head -gcs 127.0.0.1:6380 -listen 127.0.0.1:6381 -http :8265
//
// Sharded, fault-tolerant control plane (N supervised shard services with
// per-shard WAL + snapshot on ports 6381..638N after the map service; a
// killed shard restarts from disk automatically):
//
//	raynode -head -gcs 127.0.0.1:6380 -gcs-shards 3 -gcs-data /var/ray/gcs -listen 127.0.0.1:6390
//
// Additional worker nodes (any number, any machine that can reach the
// head; in-memory and sharded heads speak the same protocol — the worker
// fetches the shard map from -join and dials the shard addresses in it,
// which derive from the head's -gcs, so -gcs must be an address workers
// can reach). A worker whose head dies retries each control-plane call for
// a few seconds before giving up, and its subscriptions reattach when the
// head comes back; -join to an address that is not a control plane exits
// with an error naming it.
//
//	raynode -join 127.0.0.1:6380 -listen 127.0.0.1:6382 -cpu 8 -gpu 1
//
// Demo driver (runs a small workload against the cluster from the head):
//
//	raynode -head -gcs :6380 -listen 127.0.0.1:6381 -demo
//
// Every raynode carries the same built-in function registry (Go cannot ship
// closures at runtime, so functions are compiled in — the registry is the
// analogue of the paper prototype's preloaded worker code).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/autoscale"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/gcs"
	"repro/internal/mcts"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/rl"
	"repro/internal/rnn"
	"repro/internal/scheduler"
	"repro/internal/sensor"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	var (
		head     = flag.Bool("head", false, "run the head node (control plane + global scheduler)")
		gcsAddr  = flag.String("gcs", "127.0.0.1:6380", "control-plane service address (serve when -head, dial when -join)")
		join     = flag.String("join", "", "head control-plane address to join as a worker node")
		listen   = flag.String("listen", "127.0.0.1:6381", "this node's transport address")
		httpAdr  = flag.String("http", "", "dashboard HTTP address (head only), e.g. :8265")
		cpu      = flag.Float64("cpu", 8, "CPU capacity of this node")
		gpu      = flag.Float64("gpu", 0, "GPU capacity of this node")
		shards   = flag.Int("shards", 8, "control-plane kv striping per store/shard (head only)")
		gcsNum   = flag.Int("gcs-shards", 0, "run the control plane as N supervised shard services with per-shard WAL/snapshot (head only; 0 = single in-memory service)")
		gcsData  = flag.String("gcs-data", "raynode-data/gcs", "data directory for control-plane shard WALs and snapshots (sharded mode)")
		spill    = flag.Int("spill", 16, "local scheduler spill threshold")
		storeCap = flag.Int64("store-cap", 0, "object store memory capacity in bytes (0 = unlimited)")
		spillDir = flag.String("spill-dir", "", "directory for the object store's disk spill tier (empty = disabled)")
		spillCap = flag.Int64("spill-budget", 0, "disk budget for the spill tier in bytes (0 = unlimited)")
		autoMax  = flag.Int("autoscale-max", 0, "enable the autoscaler (head only): grow up to N nodes total by booting extra in-process worker nodes on ports derived from -listen (+1000..), and drain idle ones back down (0 = disabled)")
		demo     = flag.Bool("demo", false, "run the demo workload after boot (head only)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the dashboard mux (head with -http only)")
	)
	flag.Parse()

	if !*head && *join == "" {
		fmt.Fprintln(os.Stderr, "raynode: need -head or -join <addr>")
		os.Exit(2)
	}

	reg := builtinRegistry()
	// One process-wide metrics registry: the node instruments into it, and
	// on a sharded head the GCS supervisor's WAL histograms join it, so
	// everything ships together in the node's heartbeat telemetry.
	procMetrics := metrics.NewRegistry()
	res := types.Resources{types.ResCPU: *cpu}
	if *gpu > 0 {
		res[types.ResGPU] = *gpu
	}

	var ctrl gcs.API
	var super *gcs.Supervisor
	if *head {
		var stop func()
		var err error
		ctrl, _, super, stop, err = serveControlPlane(*gcsAddr, *listen, *gcsNum, *gcsData, *shards, procMetrics)
		if err != nil {
			log.Fatalf("raynode: %v", err)
		}
		defer stop()
	} else {
		sh, err := joinControlPlane(*join)
		if err != nil {
			log.Fatalf("raynode: %v", err)
		}
		defer sh.Close()
		ctrl = sh
	}

	n, err := node.New(node.Config{
		Resources:         res,
		StoreCapacity:     *storeCap,
		SpillDir:          *spillDir,
		SpillBudget:       *spillCap,
		Network:           transport.TCP{},
		ListenAddr:        *listen,
		Ctrl:              ctrl,
		Registry:          reg,
		SpillThreshold:    *spill,
		HeartbeatInterval: 100 * time.Millisecond,
		Metrics:           procMetrics,
	})
	if err != nil {
		log.Fatalf("raynode: start node: %v", err)
	}
	defer n.Shutdown()
	log.Printf("node %v up at %s with %v", n.ID(), n.Addr(), res)

	if *head {
		calls := node.NewCaller(transport.TCP{})
		defer calls.Close()
		g := scheduler.NewGlobal(scheduler.GlobalConfig{
			Ctrl:         ctrl,
			Policy:       scheduler.LocalityPolicy{},
			Assign:       calls.Assign,
			Reserve:      calls.Reserve,
			ReleaseGroup: calls.ReleaseGroup,
			FailTask:     calls.FailTask,
		})
		g.Start()
		defer g.Stop()
		log.Printf("global scheduler running (policy: locality)")

		var as *autoscale.Autoscaler
		if *autoMax > 0 {
			prov := &localProvisioner{
				base:     *listen,
				network:  transport.TCP{},
				ctrl:     ctrl,
				registry: reg,
				res:      res,
				spill:    *spill,
				storeCap: *storeCap,
			}
			defer prov.shutdownAll()
			headID := n.ID()
			as = autoscale.New(autoscale.Config{
				Ctrl:        ctrl,
				Provisioner: prov,
				Metrics:     procMetrics,
				Policy: autoscale.Policy{
					MaxNodes:  *autoMax,
					Protected: func(id types.NodeID) bool { return id == headID },
				},
			})
			as.Start()
			defer as.Stop()
			log.Printf("autoscaler enabled (up to %d nodes)", *autoMax)
		}

		if *httpAdr != "" {
			var opts []dashboard.Option
			if super != nil {
				opts = append(opts, dashboard.WithShardStats(super.Stats))
			}
			if as != nil {
				opts = append(opts, dashboard.WithAutoscaler(as.Status))
			}
			if *pprofOn {
				opts = append(opts, dashboard.WithPprof())
			}
			handler := dashboard.Handler(ctrl, opts...)
			go func() {
				log.Printf("dashboard on http://%s", *httpAdr)
				if err := http.ListenAndServe(*httpAdr, handler); err != nil {
					log.Printf("dashboard: %v", err)
				}
			}()
		}
		if *demo {
			runDemo(n)
			return
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}

// serveControlPlane starts the head's control plane at gcsAddr and returns
// the head's own handle on it and the address joiners dial. With gcsShards
// == 0 that is one in-memory store, used in-process by the head and served
// to joiners as a one-shard control plane at the address it bound (gcsAddr
// with port 0 picks one); otherwise it is gcsShards supervised shard
// services, each with its own WAL + snapshot under dataDir, on the
// consecutive ports after gcsAddr (a crashed shard is restarted from disk
// automatically), reached by the head through the same client joiners use.
// The supervisor is nil in the in-memory mode. stop releases everything
// started here.
func serveControlPlane(gcsAddr, listen string, gcsShards int, dataDir string, kvShards int, reg *metrics.Registry) (ctrl gcs.API, addr string, super *gcs.Supervisor, stop func(), err error) {
	if gcsShards == 0 {
		store := gcs.NewStore(kvShards)
		srv := transport.NewServer()
		l, err := (transport.TCP{}).Listen(gcsAddr, srv)
		if err != nil {
			return nil, "", nil, nil, fmt.Errorf("serve control plane: %w", err)
		}
		gcs.RegisterSingleShard(srv, store, l.Addr())
		log.Printf("in-memory control plane serving on %s (%d kv stripes)", l.Addr(), kvShards)
		gcs.ExportRecords(reg, store.Records)
		return store, l.Addr(), nil, func() { l.Close() }, nil
	}
	shardAddrs, err := derivePortAddrs(gcsAddr, gcsShards)
	if err != nil {
		return nil, "", nil, nil, fmt.Errorf("shard addresses: %w", err)
	}
	for _, a := range shardAddrs {
		if a == listen {
			return nil, "", nil, nil, fmt.Errorf("-listen %s collides with control-plane shard address %s "+
				"(shards occupy the %d ports after -gcs %s); pick a -listen outside that range",
				listen, a, gcsShards, gcsAddr)
		}
	}
	super, err = gcs.NewSupervisor(gcs.SupervisorConfig{
		Shards:      gcsShards,
		Network:     transport.TCP{},
		MapAddr:     gcsAddr,
		ShardAddrs:  shardAddrs,
		DataDir:     dataDir,
		SubShards:   kvShards,
		AutoRestart: 200 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		return nil, "", nil, nil, fmt.Errorf("start sharded control plane: %w", err)
	}
	sh, err := joinControlPlane(gcsAddr)
	if err != nil {
		super.Close()
		return nil, "", nil, nil, err
	}
	log.Printf("sharded control plane: map on %s, %d shards on %v (data in %s)", gcsAddr, gcsShards, shardAddrs, dataDir)
	gcs.ExportRecords(reg, super.Records)
	return sh, gcsAddr, super, func() { sh.Close(); super.Close() }, nil
}

// joinControlPlane attaches to the control plane at addr, in-memory or
// sharded alike: both answer the shard-map request, so an address that
// does not is not a control plane and the join fails naming it. Calls
// through the returned client retry for its RetryWindow when the head (or
// one shard) dies, and its subscriptions reattach instead of closing.
func joinControlPlane(addr string) (*gcs.Sharded, error) {
	sh, err := gcs.NewSharded(gcs.ShardedConfig{Network: transport.TCP{}, MapAddr: addr})
	if err != nil {
		return nil, fmt.Errorf("no control plane at %s: %w", addr, err)
	}
	log.Printf("attached to control plane at %s (%d shards)", addr, sh.Map().NumShards())
	return sh, nil
}

// localProvisioner implements autoscale.NodeProvisioner for raynode: each
// scale-up boots one more worker node inside this process, listening on a
// port derived from the head's -listen (+1000, +1001, …). Drained nodes
// deregister and shut themselves down; the provisioner only tracks
// handles so process exit stops any survivors.
type localProvisioner struct {
	base     string
	network  transport.Network
	ctrl     gcs.API
	registry *core.Registry
	res      types.Resources
	spill    int
	storeCap int64

	mu    sync.Mutex
	next  int
	nodes []*node.Node
}

func (p *localProvisioner) ProvisionNode() error {
	p.mu.Lock()
	idx := p.next
	p.next++
	p.mu.Unlock()
	addr, err := derivePortAddr(p.base, 1000+idx)
	if err != nil {
		return err
	}
	w, err := node.New(node.Config{
		Resources:         p.res.Clone(),
		StoreCapacity:     p.storeCap,
		Network:           p.network,
		ListenAddr:        addr,
		Ctrl:              p.ctrl,
		Registry:          p.registry,
		SpillThreshold:    p.spill,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.nodes = append(p.nodes, w)
	p.mu.Unlock()
	log.Printf("autoscaler: provisioned node %v at %s", w.ID(), addr)
	return nil
}

func (p *localProvisioner) shutdownAll() {
	p.mu.Lock()
	nodes := append([]*node.Node(nil), p.nodes...)
	p.mu.Unlock()
	for _, w := range nodes {
		w.Shutdown()
	}
}

// derivePortAddr returns base's address shifted by off ports.
func derivePortAddr(base string, off int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", err
	}
	return net.JoinHostPort(host, strconv.Itoa(port+off)), nil
}

// derivePortAddrs returns n addresses on consecutive ports after base
// (host:p -> host:p+1 … host:p+n), the shard services' listen addresses.
func derivePortAddrs(base string, n int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		out[i] = net.JoinHostPort(host, strconv.Itoa(port+1+i))
	}
	return out, nil
}

// builtinRegistry holds the functions every raynode can execute: the demo
// primitives plus all workload functions, so any node can serve any
// experiment.
func builtinRegistry() *core.Registry {
	reg := core.NewRegistry()
	core.Register1(reg, "demo.square", func(tc *core.TaskContext, x int) (int, error) {
		return x * x, nil
	})
	core.Register2(reg, "demo.add", func(tc *core.TaskContext, a, b int) (int, error) {
		return a + b, nil
	})
	core.Register1(reg, "demo.sleep", func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	rl.RegisterFuncs(reg)
	mcts.RegisterFuncs(reg)
	rnn.RegisterFuncs(reg)
	sensor.RegisterFuncs(reg)
	return reg
}

// runDemo exercises the cluster: a fan-out of squares, a dependent add, and
// a wait over heterogeneous sleeps.
func runDemo(n *node.Node) {
	d := core.NewClient(n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	log.Printf("demo: submitting 16 squares")
	var refs []core.ObjectRef
	for i := 0; i < 16; i++ {
		ref, err := d.Submit1(core.Call{Function: "demo.square", Args: []types.Arg{core.Val(i)}})
		if err != nil {
			log.Fatalf("demo: %v", err)
		}
		refs = append(refs, ref)
	}
	sum := 0
	for _, r := range refs {
		raw, err := d.Get(ctx, r)
		if err != nil {
			log.Fatalf("demo get: %v", err)
		}
		v, _ := codec.DecodeAs[int](raw)
		sum += v
	}
	log.Printf("demo: sum of squares 0..15 = %d (want 1240)", sum)

	a, _ := d.Submit1(core.Call{Function: "demo.square", Args: []types.Arg{core.Val(6)}})
	b, _ := d.Submit1(core.Call{Function: "demo.square", Args: []types.Arg{core.Val(8)}})
	c, err := d.Submit1(core.Call{Function: "demo.add", Args: []types.Arg{core.RefOf(a), core.RefOf(b)}})
	if err != nil {
		log.Fatalf("demo: %v", err)
	}
	raw, err := d.Get(ctx, c)
	if err != nil {
		log.Fatalf("demo: %v", err)
	}
	v, _ := codec.DecodeAs[int](raw)
	log.Printf("demo: add(square(6), square(8)) = %d (want 100)", v)

	fast, _ := d.Submit1(core.Call{Function: "demo.sleep", Args: []types.Arg{core.Val(10)}})
	slow, _ := d.Submit1(core.Call{Function: "demo.sleep", Args: []types.Arg{core.Val(2000)}})
	ready, pending, err := d.Wait(ctx, []core.ObjectRef{fast, slow}, 1, 5*time.Second)
	if err != nil {
		log.Fatalf("demo: %v", err)
	}
	log.Printf("demo: wait(1 of 2): %d ready, %d still pending (straggler tolerated)", len(ready), len(pending))
	log.Printf("demo: done")
}
