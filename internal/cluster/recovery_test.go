package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/kv"
	"repro/internal/node"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestControlPlaneFailover exercises the paper's Section 3.2.1 claim end to
// end: all durable state lives in the database, so after a control-plane
// crash the cluster recovers by restoring the database and restarting the
// stateless components — and lineage survives, so even objects lost along
// with the old nodes are reconstructed under the new incarnation.
func TestControlPlaneFailover(t *testing.T) {
	reg := core.NewRegistry()
	square := core.Register1(reg, "sq", func(tc *core.TaskContext, x int) (int, error) {
		return x * x, nil
	})

	// Incarnation 1: run a workload.
	c1, err := New(Config{Nodes: 2, NodeResources: types.CPU(2), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d1 := c1.Driver()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var refs []core.Ref[int]
	for i := 0; i < 6; i++ {
		r, err := square.Remote(d1, i)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	raw := make([]core.ObjectRef, len(refs))
	for i, r := range refs {
		raw[i] = r.Untyped()
	}
	if _, _, err := d1.Wait(ctx, raw, len(raw), 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Snapshot the control database, then crash everything: nodes die with
	// their object stores, the control plane process is gone.
	var snap bytes.Buffer
	if err := c1.Ctrl.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	c1.Shutdown()

	// Incarnation 2: restore the database, wrap it as a control plane, and
	// start fresh stateless components against it.
	db, err := kv.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := gcs.RecoverStore(db)
	ctrl.ResetAfterRecovery() // the old incarnation's nodes are gone
	if got := len(ctrl.Tasks()); got != 6 {
		t.Fatalf("recovered task table has %d entries", got)
	}

	nw := transport.NewInproc(0)
	n, err := node.New(node.Config{
		Resources:      types.CPU(4),
		Network:        nw,
		ListenAddr:     "recovered-node",
		Ctrl:           ctrl,
		Registry:       reg,
		SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	// The old objects' only copies died with the old nodes; Gets against
	// the recovered control plane must replay lineage on the new node.
	d2 := core.NewClient(n)
	for i, r := range refs {
		data, err := d2.Get(ctx, r.Untyped())
		if err != nil {
			t.Fatalf("get %d after control-plane failover: %v", i, err)
		}
		v, err := codec.DecodeAs[int](data)
		if err != nil {
			t.Fatal(err)
		}
		if v != i*i {
			t.Fatalf("value %d = %d, want %d", i, v, i*i)
		}
	}
}
