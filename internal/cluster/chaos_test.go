package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// TestChaosKillsDuringWorkload submits a steady stream of dependent task
// chains while nodes are killed mid-flight. Every result must still come
// back correct: in-flight tasks on dead nodes are re-owned via the task
// table's CAS transitions, lost objects replay from lineage, and the global
// scheduler routes around the shrinking cluster (R6 under fire, not just
// after the dust settles).
func TestChaosKillsDuringWorkload(t *testing.T) {
	reg := core.NewRegistry()
	step := core.Register1(reg, "chaos.step", func(tc *core.TaskContext, x int) (int, error) {
		time.Sleep(2 * time.Millisecond) // long enough for kills to land mid-task
		return x + 1, nil
	})
	c, err := New(Config{
		Nodes:          4,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{}, // spread work to all victims
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	// 16 chains of depth 4: +1 four times from distinct bases.
	const chains, depth = 16, 4
	tails := make([]core.Ref[int], chains)
	for i := 0; i < chains; i++ {
		ref, err := step.Remote(d, i*100)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < depth; k++ {
			ref, err = step.RemoteRef(d, ref)
			if err != nil {
				t.Fatal(err)
			}
		}
		tails[i] = ref
	}

	// Kill two non-driver nodes while the chains execute.
	go func() {
		time.Sleep(5 * time.Millisecond)
		c.KillNode(3)
		time.Sleep(10 * time.Millisecond)
		c.KillNode(2)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, ref := range tails {
		v, err := core.Get(ctx, d, ref)
		if err != nil {
			t.Fatalf("chain %d after chaos: %v", i, err)
		}
		if want := i*100 + depth; v != want {
			t.Fatalf("chain %d = %d, want %d", i, v, want)
		}
	}
}

// TestChaosRepeatedKillsWithRetries layers application-level retries on top
// of node failures: tasks that fail transiently on their own must still
// converge while the cluster loses a node.
func TestChaosRepeatedKillsWithRetries(t *testing.T) {
	reg := core.NewRegistry()
	attempts := make(chan struct{}, 1024)
	flaky := core.Register1(reg, "chaos.flaky", func(tc *core.TaskContext, x int) (int, error) {
		attempts <- struct{}{}
		if len(attempts)%5 == 1 { // deterministic-ish transient failures
			return 0, errTransient
		}
		return x * 2, nil
	})
	c, err := New(Config{
		Nodes:          3,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	var refs []core.Ref[int]
	for i := 0; i < 12; i++ {
		ref, err := flaky.Remote(d, i, core.WithMaxRetries(10))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	go func() {
		time.Sleep(3 * time.Millisecond)
		c.KillNode(2)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, ref := range refs {
		v, err := core.Get(ctx, d, ref)
		if err != nil {
			t.Fatalf("flaky %d: %v", i, err)
		}
		if v != i*2 {
			t.Fatalf("flaky %d = %d", i, v)
		}
	}
}

var errTransient = errTransientType{}

type errTransientType struct{}

func (errTransientType) Error() string { return "transient chaos failure" }

// --- control-plane shard-kill chaos ---

// awaitZeroRefcounts delegates to the shared cluster-invariant checker
// (internal/chaostest): refcount conservation across shards, concluded
// only when every shard answers.
func awaitZeroRefcounts(t *testing.T, api gcs.API, within time.Duration) {
	t.Helper()
	chaostest.New(api).AwaitZeroRefcounts(t, within)
}

// killShardOwning crash-fails the shard that owns key after the delay; the
// supervisor's auto-restart loop brings it back.
func killShardOwning(c *Cluster, key string, delay time.Duration) {
	idx := c.API.(*gcs.Sharded).Map().ShardForKey(key)
	go func() {
		time.Sleep(delay)
		c.Super.KillShard(idx)
	}()
}

// TestShardKillMatrix is the table-driven shard-kill chaos suite: each
// scenario crash-fails a control-plane shard at a different dangerous
// moment — mid submit burst, mid GC publish, mid chunked pull — with the
// supervisor auto-restarting it from snapshot+WAL. Every scenario asserts
// end-to-end task results and the refcount invariants after recovery.
func TestShardKillMatrix(t *testing.T) {
	type tc struct {
		name  string
		nodes int
		cfg   func(*Config)
		run   func(t *testing.T, c *Cluster, step core.Func1[int, int], blob core.Func2[int, int, []byte])
	}
	cases := []tc{
		{
			// Kill while a burst of dependent chains is being submitted and
			// placed through the global spill queue: task records, spill
			// publishes, and status CAS transitions all hit the dying shard.
			name:  "kill-during-submit-burst",
			nodes: 3,
			cfg: func(cfg *Config) {
				cfg.SpillThreshold = SpillThresholdOf(0)
				cfg.GlobalPolicy = &scheduler.RoundRobinPolicy{}
			},
			run: func(t *testing.T, c *Cluster, step core.Func1[int, int], blob core.Func2[int, int, []byte]) {
				d := c.Driver()
				go func() {
					time.Sleep(2 * time.Millisecond)
					c.Super.KillShard(0)
					time.Sleep(25 * time.Millisecond)
					c.Super.KillShard(1) // second kill once the first recovered
				}()
				const chains, depth = 10, 3
				tails := make([]core.Ref[int], chains)
				var all []core.ObjectRef
				for i := 0; i < chains; i++ {
					ref, err := step.Remote(d, i*100)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, ref.Untyped())
					for k := 1; k < depth; k++ {
						ref, err = step.RemoteRef(d, ref)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, ref.Untyped())
					}
					tails[i] = ref
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				for i, ref := range tails {
					v, err := core.Get(ctx, d, ref)
					if err != nil {
						t.Fatalf("chain %d: %v", i, err)
					}
					if want := i*100 + depth; v != want {
						t.Fatalf("chain %d = %d, want %d", i, v, want)
					}
				}
				d.Release(all...)
				awaitZeroRefcounts(t, c.API, 20*time.Second)
			},
		},
		{
			// Kill the shard owning a blob's record in the window where the
			// driver's releases push refcounts to zero: the GC publishes race
			// the crash, and the eligible-set replay on resubscribe must
			// reclaim whatever the crash swallowed.
			name:  "kill-during-gc-publish",
			nodes: 1,
			run: func(t *testing.T, c *Cluster, step core.Func1[int, int], blob core.Func2[int, int, []byte]) {
				d := c.Driver()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				const n = 8
				refs := make([]core.Ref[[]byte], n)
				for i := range refs {
					var err error
					refs[i], err = blob.Remote(d, i+1, 16<<10)
					if err != nil {
						t.Fatal(err)
					}
				}
				for i, r := range refs {
					data, err := core.Get(ctx, d, r)
					if err != nil || len(data) != 16<<10 {
						t.Fatalf("blob %d: len %d, %v", i, len(data), err)
					}
				}
				// Kill the shard owning blob 0's record just as the releases
				// start publishing zero transitions.
				killShardOwning(c, gcs.ObjectKey(refs[0].Untyped().ID), 0)
				for _, r := range refs {
					d.Release(r.Untyped())
				}
				awaitZeroRefcounts(t, c.API, 20*time.Second)
				// The reclaim itself must complete: every local copy dropped
				// once the restarted shard replays eligible objects.
				store := c.Node(0).Store()
				deadline := time.Now().Add(20 * time.Second)
				for store.Used() != 0 || store.SpilledBytes() != 0 {
					if time.Now().After(deadline) {
						t.Fatalf("store not drained after GC chaos: used=%d spilled=%d",
							store.Used(), store.SpilledBytes())
					}
					time.Sleep(10 * time.Millisecond)
				}
			},
		},
		{
			// Kill the shard owning a large object's record while a peer is
			// mid chunked pull of it: location lookups and ready-channel
			// subscriptions must fail over to the restarted incarnation and
			// the transfer must still complete intact.
			name:  "kill-during-chunked-pull",
			nodes: 2,
			cfg: func(cfg *Config) {
				cfg.PerNodeResources = []types.Resources{
					types.CPU(4),
					{types.ResCPU: 4, types.ResGPU: 1},
				}
			},
			run: func(t *testing.T, c *Cluster, step core.Func1[int, int], blob core.Func2[int, int, []byte]) {
				d := c.Driver() // node 0
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				// Force production onto node 1; consume from node 0.
				ref, err := blob.Remote(d, 3, 1<<20,
					core.WithResources(types.Resources{types.ResCPU: 1, types.ResGPU: 1}))
				if err != nil {
					t.Fatal(err)
				}
				killShardOwning(c, gcs.ObjectKey(ref.Untyped().ID), 3*time.Millisecond)
				data, err := core.Get(ctx, d, ref)
				if err != nil {
					t.Fatalf("pull across shard kill: %v", err)
				}
				if len(data) != 1<<20 || data[0] != 3 || data[len(data)-1] != byte(3*len(data)) {
					t.Fatalf("pulled blob corrupted (len %d)", len(data))
				}
				d.Release(ref.Untyped())
				awaitZeroRefcounts(t, c.API, 20*time.Second)
			},
		},
	}

	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			reg := core.NewRegistry()
			step := core.Register1(reg, "chaos.step", func(tc *core.TaskContext, x int) (int, error) {
				time.Sleep(time.Millisecond)
				return x + 1, nil
			})
			blob := core.Register2(reg, "chaos.blob", func(tc *core.TaskContext, seed, size int) ([]byte, error) {
				out := make([]byte, size)
				for i := range out {
					out[i] = byte(seed * (i + 1))
				}
				return out, nil
			})
			cfg := Config{
				Nodes:          tcase.nodes,
				NodeResources:  types.CPU(2),
				Registry:       reg,
				GCSShards:      3,
				GCSAutoRestart: 15 * time.Millisecond,
			}
			if tcase.cfg != nil {
				tcase.cfg(&cfg)
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			tcase.run(t, c, step, blob)
		})
	}
}

// TestShardFailoverDurableState is the tentpole acceptance kill-test: with
// two GCS shard services serving a live workload, one shard is killed and
// restarted from snapshot + WAL. No committed task-table (lineage),
// object-table, or refcount state may be lost, the workload must complete,
// and the post-recovery clock must not run backwards.
func TestShardFailoverDurableState(t *testing.T) {
	reg := core.NewRegistry()
	square := core.Register1(reg, "fo.square", func(tc *core.TaskContext, x int) (int, error) {
		return x * x, nil
	})
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		GCSShards:      2,
		GCSAutoRestart: -1, // manual restart: the test controls the outage
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	get := func(refs []core.Ref[int], base int) {
		t.Helper()
		for i, r := range refs {
			v, err := core.Get(ctx, d, r)
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if want := (base + i) * (base + i); v != want {
				t.Fatalf("value = %d, want %d", v, want)
			}
		}
	}
	submit := func(base, n int) []core.Ref[int] {
		t.Helper()
		refs := make([]core.Ref[int], n)
		for i := range refs {
			var err error
			refs[i], err = square.Remote(d, base+i)
			if err != nil {
				t.Fatal(err)
			}
		}
		return refs
	}

	// Phase 1: committed before the snapshot. The driver holds every
	// return, so every birth lands within the bound.
	born := time.Now()
	phase1 := submit(0, 6)
	get(phase1, 0)
	birthsLanded(t, born, c.Node(0))
	if err := c.Super.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: committed after the snapshot — recoverable only via WAL.
	born = time.Now()
	phase2 := submit(10, 6)
	get(phase2, 10)
	birthsLanded(t, born, c.Node(0))

	// Freeze the pre-kill truth. Owner ledgers flush task state and
	// refcounts asynchronously, so "committed" means quiescent: snapshot
	// repeatedly until two consecutive reads agree, so the freeze can't
	// catch a flush mid-flight and mistake follower lag for lost state.
	snapshot := func() (map[string]types.TaskStatus, map[string]int64) {
		tasks := make(map[string]types.TaskStatus)
		all, _ := c.API.ScanTasks(gcs.TaskFilter{})
		for _, ts := range all {
			tasks[ts.Spec.ID.Hex()] = ts.Status
		}
		refs := make(map[string]int64)
		for _, o := range c.API.Objects() {
			refs[o.ID.Hex()] = o.RefCount
		}
		return tasks, refs
	}
	preTasks, preRefs := snapshot()
	for settle := time.Now().Add(10 * time.Second); ; {
		time.Sleep(10 * time.Millisecond)
		tasks, refs := snapshot()
		if reflect.DeepEqual(tasks, preTasks) && reflect.DeepEqual(refs, preRefs) {
			break
		}
		preTasks, preRefs = tasks, refs
		if time.Now().After(settle) {
			t.Fatal("pre-kill table never quiesced")
		}
	}
	preNow := c.API.NowNs()
	if len(preTasks) != 12 {
		t.Fatalf("pre-kill task table has %d rows", len(preTasks))
	}

	// Kill shard 0 mid-life; keep the workload running through the outage.
	c.Super.KillShard(0)
	phase3 := make(chan []core.Ref[int], 1)
	go func() { phase3 <- submit(20, 4) }()
	time.Sleep(40 * time.Millisecond)
	if err := c.Super.RestartShard(0); err != nil {
		t.Fatalf("restart from snapshot+WAL: %v", err)
	}
	get(<-phase3, 20)

	// Lineage: every pre-kill task record survived with its status.
	postTasks := make(map[string]types.TaskStatus)
	all, _ := c.API.ScanTasks(gcs.TaskFilter{})
	for _, ts := range all {
		postTasks[ts.Spec.ID.Hex()] = ts.Status
	}
	for id, status := range preTasks {
		got, ok := postTasks[id]
		if !ok {
			t.Fatalf("task %s lost across shard failover", id)
		}
		if got != status {
			t.Fatalf("task %s status %v -> %v across failover", id, status, got)
		}
	}
	// Refcounts: every committed count survived exactly.
	postRefs := make(map[string]int64)
	for _, o := range c.API.Objects() {
		postRefs[o.ID.Hex()] = o.RefCount
	}
	for id, n := range preRefs {
		got, ok := postRefs[id]
		if !ok {
			t.Fatalf("object %s lost across shard failover", id)
		}
		if got != n {
			t.Fatalf("object %s refcount %d -> %d across failover", id, n, got)
		}
	}
	// The restarted incarnation replayed WAL records on top of the
	// snapshot (phase 2 and the live phase-3 traffic guarantee some), and
	// the durable epoch kept the clock monotonic.
	if inc := c.Super.Shard(0).Incarnation(); inc != 2 {
		t.Fatalf("shard 0 incarnation = %d, want 2", inc)
	}
	if rep := c.Super.Shard(0).Stats().Replayed; rep == 0 {
		t.Fatal("restart replayed no WAL records; recovery path not exercised")
	}
	if now := c.API.NowNs(); now < preNow {
		t.Fatalf("cluster clock ran backwards across failover: %d -> %d", preNow, now)
	}
	// And a pre-kill object is still readable end to end.
	get(phase1[:1], 0)
}
