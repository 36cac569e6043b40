package autoscale

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

type fakeProv struct {
	mu    sync.Mutex
	calls int
	fail  bool
}

func (p *fakeProv) ProvisionNode() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail {
		return fmt.Errorf("no capacity")
	}
	p.calls++
	return nil
}

func (p *fakeProv) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func nid(i byte) types.NodeID {
	var id types.NodeID
	id[0] = i
	return id
}

// harness: a real in-process control plane (the autoscaler speaks only
// gcs.API, so the store doubles as the fake), with nodes registered and
// heartbeats injected directly. Ticks are driven by hand for determinism.
func harness(t *testing.T, p Policy, prov NodeProvisioner, nodes int) (*Autoscaler, *gcs.Store) {
	t.Helper()
	s := gcs.NewStore(2)
	for i := 0; i < nodes; i++ {
		s.RegisterNode(types.NodeInfo{ID: nid(byte(i + 1)), Addr: fmt.Sprintf("n%d", i), Total: types.CPU(4)})
	}
	a := New(Config{Ctrl: s, Provisioner: prov, Policy: p})
	return a, s
}

func beat(s *gcs.Store, i byte, queue int, avail types.Resources) {
	s.Heartbeat(nid(i), queue, avail, types.StoreStats{})
}

// TestScaleUpOnBacklog: heartbeat backlog over the threshold provisions a
// node; the cooldown then gates a second provision.
func TestScaleUpOnBacklog(t *testing.T) {
	prov := &fakeProv{}
	a, s := harness(t, Policy{ScaleUpBacklog: 3, MaxNodes: 4, Cooldown: time.Hour}, prov, 2)
	beat(s, 1, 1, types.CPU(0))
	beat(s, 2, 1, types.CPU(0))
	a.tick()
	if prov.count() != 0 {
		t.Fatalf("scaled up below threshold: %d", prov.count())
	}
	beat(s, 1, 5, types.CPU(0))
	beat(s, 2, 4, types.CPU(0))
	a.tick()
	if prov.count() != 1 {
		t.Fatalf("backlog over threshold must provision once: %d", prov.count())
	}
	a.tick() // still over threshold, but inside the cooldown
	if prov.count() != 1 {
		t.Fatalf("cooldown must gate the second provision: %d", prov.count())
	}
	if st := a.Status(); st.ScaleUps != 1 || st.Backlog != 9 {
		t.Fatalf("bad status: %+v", st)
	}
}

// TestScaleUpOnSpillPressure: the spill-tier signal triggers without any
// queue backlog.
func TestScaleUpOnSpillPressure(t *testing.T) {
	prov := &fakeProv{}
	a, s := harness(t, Policy{ScaleUpSpilledBytes: 1 << 20, Cooldown: time.Hour}, prov, 1)
	s.Heartbeat(nid(1), 0, types.CPU(4), types.StoreStats{SpilledBytes: 2 << 20})
	a.tick()
	if prov.count() != 1 {
		t.Fatalf("spill pressure must provision: %d", prov.count())
	}
}

// TestMaxNodesCap: no provisioning at the ceiling, however deep the
// backlog.
func TestMaxNodesCap(t *testing.T) {
	prov := &fakeProv{}
	a, s := harness(t, Policy{ScaleUpBacklog: 1, MaxNodes: 2}, prov, 2)
	beat(s, 1, 100, types.CPU(0))
	beat(s, 2, 100, types.CPU(0))
	a.tick()
	if prov.count() != 0 {
		t.Fatalf("provisioned past MaxNodes: %d", prov.count())
	}
}

// TestScaleDownDrainsIdleUnprotectedNode: sustained idleness drains
// exactly one node — the unprotected one — via the drain-state CAS.
func TestScaleDownDrainsIdleUnprotectedNode(t *testing.T) {
	prov := &fakeProv{}
	protected := nid(1)
	a, s := harness(t, Policy{
		MinNodes:  1,
		IdleAfter: time.Millisecond,
		Cooldown:  time.Millisecond,
		Protected: func(id types.NodeID) bool { return id == protected },
	}, prov, 2)
	beat(s, 1, 0, types.CPU(4))
	beat(s, 2, 0, types.CPU(4))
	a.tick() // arms idleSince
	time.Sleep(5 * time.Millisecond)
	a.tick() // idle long enough: drain
	info, ok := s.GetNode(nid(2))
	if !ok || info.State != types.NodeDraining {
		t.Fatalf("unprotected idle node not draining: %+v ok=%v", info, ok)
	}
	if info, _ := s.GetNode(protected); info.State != types.NodeActive {
		t.Fatal("protected node must never drain")
	}
	// One drain at a time: the in-flight drain blocks another decision.
	time.Sleep(5 * time.Millisecond)
	a.tick()
	if info, _ := s.GetNode(protected); info.State != types.NodeActive {
		t.Fatal("second drain started while one was in flight")
	}
	if st := a.Status(); st.Drains != 1 {
		t.Fatalf("bad drain count: %+v", st)
	}
}

// TestScaleDownRespectsMinNodes: an idle cluster at the floor never
// drains.
func TestScaleDownRespectsMinNodes(t *testing.T) {
	a, s := harness(t, Policy{MinNodes: 2, IdleAfter: time.Millisecond, Cooldown: time.Millisecond}, &fakeProv{}, 2)
	beat(s, 1, 0, types.CPU(4))
	beat(s, 2, 0, types.CPU(4))
	a.tick()
	time.Sleep(5 * time.Millisecond)
	a.tick()
	for i := byte(1); i <= 2; i++ {
		if info, _ := s.GetNode(nid(i)); info.State != types.NodeActive {
			t.Fatalf("drained below MinNodes: node %d %v", i, info.State)
		}
	}
}

// TestBusyClusterResetsIdleClock: any backlog re-arms the idle window.
func TestBusyClusterResetsIdleClock(t *testing.T) {
	// Each half of the window is 60% of IdleAfter: both together exceed
	// it, and a sleep would have to overshoot by 80 ms to reach it alone.
	const idleAfter = 200 * time.Millisecond
	a, s := harness(t, Policy{MinNodes: 1, IdleAfter: idleAfter, Cooldown: time.Millisecond}, &fakeProv{}, 2)
	beat(s, 1, 0, types.CPU(4))
	beat(s, 2, 0, types.CPU(4))
	a.tick()
	time.Sleep(idleAfter * 6 / 10)
	beat(s, 1, 3, types.CPU(1)) // busy again
	a.tick()                    // resets the idle clock
	beat(s, 1, 0, types.CPU(4))
	a.tick() // idle re-arms from now
	time.Sleep(idleAfter * 6 / 10)
	a.tick() // less than IdleAfter since re-arm: no drain yet
	for i := byte(1); i <= 2; i++ {
		if info, _ := s.GetNode(nid(i)); info.State != types.NodeActive {
			t.Fatal("drained before the idle window elapsed")
		}
	}
}

// TestDrainTimeoutRollsBack: a drain stuck past DrainTimeout (aged from
// the record's DrainNs on the cluster clock) is rolled back to Active —
// including operator-initiated drains the loop never started.
func TestDrainTimeoutRollsBack(t *testing.T) {
	a, s := harness(t, Policy{DrainTimeout: 2 * time.Millisecond}, &fakeProv{}, 2)
	if !s.CASNodeState(nid(2), []types.NodeState{types.NodeActive}, types.NodeDraining) {
		t.Fatal("setup drain failed")
	}
	a.tick() // adopts the operator drain; too young to time out
	if info, _ := s.GetNode(nid(2)); info.State != types.NodeDraining {
		t.Fatal("rolled back a young drain")
	}
	time.Sleep(5 * time.Millisecond)
	a.tick()
	if info, _ := s.GetNode(nid(2)); info.State != types.NodeActive {
		t.Fatalf("stuck drain not rolled back: %v", info.State)
	}
	if st := a.Status(); st.RolledBack != 1 {
		t.Fatalf("bad rollback count: %+v", st)
	}
}

// TestDrainCompletionCounted: a tracked drain reaching Drained is counted
// complete and untracked.
func TestDrainCompletionCounted(t *testing.T) {
	a, s := harness(t, Policy{MinNodes: 1, IdleAfter: time.Millisecond, Cooldown: time.Millisecond}, &fakeProv{}, 2)
	beat(s, 1, 0, types.CPU(4))
	beat(s, 2, 0, types.CPU(4))
	a.tick()
	time.Sleep(5 * time.Millisecond)
	a.tick()
	// Find the draining node and complete its protocol.
	var victim types.NodeID
	for i := byte(1); i <= 2; i++ {
		if info, _ := s.GetNode(nid(i)); info.State == types.NodeDraining {
			victim = nid(i)
		}
	}
	if victim.IsNil() {
		t.Fatal("no drain started")
	}
	if !s.CASNodeState(victim, []types.NodeState{types.NodeDraining}, types.NodeDrained) {
		t.Fatal("drained commit failed")
	}
	s.MarkNodeDead(victim)
	a.tick()
	if st := a.Status(); st.Drained != 1 {
		t.Fatalf("completion not counted: %+v", st)
	}
}

// degradedCtrl wraps the store with a controllable Ping: a sharded
// control plane whose fan-out scans are currently missing a dead shard's
// rows answers false, and the autoscaler must hold all decisions.
type degradedCtrl struct {
	*gcs.Store
	up bool
}

func (d *degradedCtrl) Ping() bool { return d.up }

// TestDegradedViewHoldsDecisions: with a shard down, neither the
// undercounted active set nor the hidden in-flight drain may trigger an
// action; decisions resume when the view completes.
func TestDegradedViewHoldsDecisions(t *testing.T) {
	prov := &fakeProv{}
	s := gcs.NewStore(2)
	ctrl := &degradedCtrl{Store: s, up: false}
	for i := 0; i < 2; i++ {
		s.RegisterNode(types.NodeInfo{ID: nid(byte(i + 1)), Addr: fmt.Sprintf("n%d", i), Total: types.CPU(4)})
	}
	a := New(Config{Ctrl: ctrl, Provisioner: prov,
		Policy: Policy{MinNodes: 1, ScaleUpBacklog: 1, IdleAfter: time.Millisecond, Cooldown: time.Millisecond}})

	// Deep backlog, but the view is degraded: no provision.
	beat(s, 1, 50, types.CPU(0))
	beat(s, 2, 50, types.CPU(0))
	a.tick()
	if prov.count() != 0 {
		t.Fatalf("provisioned on a degraded view: %d", prov.count())
	}
	// Fully idle, but degraded: no drain either.
	beat(s, 1, 0, types.CPU(4))
	beat(s, 2, 0, types.CPU(4))
	a.tick()
	time.Sleep(5 * time.Millisecond)
	a.tick()
	for i := byte(1); i <= 2; i++ {
		if info, _ := s.GetNode(nid(i)); info.State != types.NodeActive {
			t.Fatal("drained on a degraded view")
		}
	}
	// View completes: decisions resume (idle clock arms fresh).
	ctrl.up = true
	a.tick()
	time.Sleep(5 * time.Millisecond)
	a.tick()
	drained := 0
	for i := byte(1); i <= 2; i++ {
		if info, _ := s.GetNode(nid(i)); info.State == types.NodeDraining {
			drained++
		}
	}
	if drained != 1 {
		t.Fatalf("decisions did not resume once the view completed: %d draining", drained)
	}
}
