package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// elasticityHarness registers a gated blob producer: every task blocks on
// the shared release channel (the in-process registry is shared by all
// nodes, provisioned ones included), so the submit burst's backlog holds
// — deterministically, under any scheduler or race-detector load — until
// the test has observed the scale-up, then resolves to verifiable bytes.
type elasticityHarness struct {
	reg     *core.Registry
	work    core.Func2[int, int, []byte]
	release chan struct{}
	once    sync.Once
}

func newElasticityHarness() *elasticityHarness {
	h := &elasticityHarness{reg: core.NewRegistry(), release: make(chan struct{})}
	h.work = core.Register2(h.reg, "as.work", func(tc *core.TaskContext, seed, size int) ([]byte, error) {
		<-h.release
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(seed * (i + 1))
		}
		return out, nil
	})
	return h
}

func (h *elasticityHarness) unblock() { h.once.Do(func() { close(h.release) }) }

// runElasticity drives the acceptance loop of ISSUE 5 against an
// already-built 2-node cluster: a submit burst triggers scale-up, the
// results all read back correct, idleness triggers drains that
// spill-migrate every referenced object (verified readable afterward via
// Get, zero lost-object or store-full failures) before the drained nodes
// deregister back to the 2-node floor.
func runElasticity(t *testing.T, c *Cluster, h *elasticityHarness) {
	t.Cleanup(h.unblock)
	driverNode := c.Node(0).ID()
	as := autoscale.New(autoscale.Config{
		Ctrl:        c.API,
		Provisioner: c,
		Interval:    20 * time.Millisecond,
		Policy: autoscale.Policy{
			MinNodes:       2,
			MaxNodes:       4,
			ScaleUpBacklog: 3,
			IdleAfter:      300 * time.Millisecond,
			Cooldown:       150 * time.Millisecond,
			DrainTimeout:   30 * time.Second,
			Protected:      func(id types.NodeID) bool { return id == driverNode },
		},
	})
	as.Start()
	defer as.Stop()

	// Submit burst: far more tasks than the 2 seed nodes' 4 CPUs, all
	// holding until released, so heartbeats carry a standing backlog.
	const n, size = 32, 32 << 10
	d := c.Driver()
	refs := make([]core.Ref[[]byte], n)
	var err error
	for i := range refs {
		refs[i], err = h.work.Remote(d, i+1, size)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Scale-up reaction: the backlog must grow the cluster past its seed.
	waitFor(t, 30*time.Second, "scale-up under the burst", func() bool {
		return c.NumNodes() >= 3
	})
	h.unblock()

	// Consume every result while the burst drains.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i, r := range refs {
		data, err := core.Get(ctx, d, r)
		if err != nil {
			t.Fatalf("burst result %d: %v", i, err)
		}
		if len(data) != size || data[0] != byte(i+1) {
			t.Fatalf("burst result %d corrupted", i)
		}
	}

	// Idleness now triggers scale-down: nodes drain (migrating the blobs
	// the driver still references) and deregister, back down to MinNodes.
	waitFor(t, 60*time.Second, "drain back to the floor", func() bool {
		alive, active := 0, 0
		for _, ni := range c.API.Nodes() {
			if !ni.Alive {
				continue
			}
			alive++
			if ni.State == types.NodeActive {
				active++
			}
		}
		// The completion counter lands on the autoscaler's next tick after
		// the node deregisters, so it is part of the awaited condition.
		st := as.Status()
		return active == 2 && alive == 2 && st.ScaleUps >= 1 && st.Drained >= 1
	})

	// The drained nodes' objects all migrated: every ref still readable,
	// nothing Lost, no store-full/lost-object failures anywhere.
	for i, r := range refs {
		info, ok := c.API.GetObject(r.Untyped().ID)
		if !ok || info.State != types.ObjectReady {
			t.Fatalf("blob %d not READY after drains: %+v ok=%v", i, info, ok)
		}
		data, err := core.Get(ctx, d, r)
		if err != nil || len(data) != size {
			t.Fatalf("blob %d unreadable after drains: len=%d err=%v", i, len(data), err)
		}
	}
	tasks, _ := c.API.ScanTasks(gcs.TaskFilter{})
	for _, ts := range tasks {
		if ts.Status == types.TaskFailed {
			t.Fatalf("task %v failed during elasticity cycle: %s", ts.Spec.ID, ts.Error)
		}
	}

	checker := chaostest.New(c.API)
	checker.AwaitReferencedReachable(t, 10*time.Second)
	for _, r := range refs {
		d.Release(r.Untyped())
	}
	checker.AwaitZeroRefcounts(t, 30*time.Second)
}

// TestAutoscalerElasticity is the acceptance test (ISSUE 5) against the
// in-process control plane.
func TestAutoscalerElasticity(t *testing.T) {
	h := newElasticityHarness()
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(2),
		Registry:       h.reg,
		SpillThreshold: SpillThresholdOf(0), // everything through the global queue
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	runElasticity(t, c, h)
}

// TestAutoscalerElasticitySharded runs the same closed loop against the
// sharded control plane: the autoscaler speaks only gcs.API, so one
// implementation must serve both deployments (the ISSUE's tentpole
// requirement).
func TestAutoscalerElasticitySharded(t *testing.T) {
	h := newElasticityHarness()
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(2),
		Registry:       h.reg,
		GCSShards:      3,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	runElasticity(t, c, h)
}
