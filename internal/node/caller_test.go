package node

import (
	"errors"
	"testing"

	"repro/internal/transport"
	"repro/internal/types"
)

// TestCallerAllocBudget pins what one placement costs the global
// scheduler's side: the boxed spec, its encoding and the in-process call.
func TestCallerAllocBudget(t *testing.T) {
	nw := transport.NewInproc(0)
	srv := transport.NewServer()
	srv.Handle(AssignMethod, func([]byte) ([]byte, error) { return nil, nil })
	l, err := nw.Listen("n", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewCaller(nw)
	defer c.Close()
	spec := types.TaskSpec{Function: "f", NumReturns: 1, Resources: types.CPU(1)}
	if got := testing.AllocsPerRun(200, func() { c.Assign(types.NilNodeID, "n", spec) }); got > 3 {
		t.Fatalf("%.1f allocations per assignment, budget 3", got)
	}
}

// TestCallerDropsFailedClient: an error the node answers with keeps the
// cached client; a call the transport fails drops it, and the next call
// dials afresh.
func TestCallerDropsFailedClient(t *testing.T) {
	nw := transport.NewInproc(0)
	srv := transport.NewServer()
	srv.Handle(ReserveMethod, func([]byte) ([]byte, error) { return nil, errors.New("does not fit") })
	srv.Handle(GroupReleaseMethod, func([]byte) ([]byte, error) { return nil, nil })
	l, err := nw.Listen("n", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewCaller(nw)
	defer c.Close()
	cached := func() transport.Client {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.conns["n"]
	}
	if err := c.Reserve(types.NilNodeID, "n", types.PlacementGroupID{}, 0, types.CPU(1)); !transport.IsRemote(err) || cached() == nil {
		t.Fatalf("a refused reservation: err %v, cached %v, want the node's answer and the client kept", err, cached())
	}
	first := cached()
	first.Close() // the connection dies under the cache
	if err := c.ReleaseGroup(types.NilNodeID, "n", types.PlacementGroupID{}, false); err == nil || transport.IsRemote(err) || cached() != nil {
		t.Fatalf("a call over a dead connection: err %v, cached %v, want a transport error and nothing cached", err, cached())
	}
	if err := c.ReleaseGroup(types.NilNodeID, "n", types.PlacementGroupID{}, false); err != nil || cached() == nil || cached() == first {
		t.Fatalf("the next call: err %v, want it to dial afresh and land", err)
	}
}
