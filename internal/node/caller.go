package node

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/types"
)

// Caller delivers the global scheduler's calls to nodes — placements, gang
// reservations and releases, and fail requests — over one network, with
// one cached client per node address. A call that fails in the transport
// drops its client, so the next call to that address dials afresh; an
// error the node answered with leaves the connection be. Its four methods
// have the shapes of scheduler.GlobalConfig's node callbacks.
type Caller struct {
	network transport.Network

	mu    sync.Mutex
	conns map[string]transport.Client
}

// NewCaller returns a Caller dialing over network.
func NewCaller(network transport.Network) *Caller {
	return &Caller{network: network, conns: make(map[string]transport.Client)}
}

// Assign delivers a placement.
func (c *Caller) Assign(_ types.NodeID, addr string, spec types.TaskSpec) error {
	return c.call(addr, AssignMethod, spec)
}

// Reserve delivers a gang bundle reservation.
func (c *Caller) Reserve(_ types.NodeID, addr string, group types.PlacementGroupID, bundle int, res types.Resources) error {
	return c.call(addr, ReserveMethod, ReserveReq{Group: group, Bundle: bundle, Res: res})
}

// ReleaseGroup delivers a gang reservation release.
func (c *Caller) ReleaseGroup(_ types.NodeID, addr string, group types.PlacementGroupID, removed bool) error {
	return c.call(addr, GroupReleaseMethod, GroupReleaseReq{Group: group, Removed: removed})
}

// FailTask asks a node to bury a task with a terminal error.
func (c *Caller) FailTask(_ types.NodeID, addr string, spec types.TaskSpec, reason string) error {
	return c.call(addr, FailTaskMethod, FailTaskReq{Spec: spec, Reason: reason})
}

func (c *Caller) call(addr, method string, req any) error {
	client, err := c.client(addr)
	if err != nil {
		return err
	}
	if _, err = client.Call(method, codec.MustEncode(req)); err != nil && !transport.IsRemote(err) {
		c.drop(addr, client)
	}
	return err
}

func (c *Caller) client(addr string) (transport.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if client, ok := c.conns[addr]; ok {
		return client, nil
	}
	client, err := c.network.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.conns[addr] = client
	return client, nil
}

// Forget closes and forgets addr's client: its node is known dead.
func (c *Caller) Forget(addr string) { c.drop(addr, nil) }

// drop closes and forgets addr's client if it is client (nil: whichever
// it is). A client a concurrent call has already replaced stays.
func (c *Caller) drop(addr string, client transport.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.conns[addr]; ok && (client == nil || cur == client) {
		cur.Close()
		delete(c.conns, addr)
	}
}

// Close closes every client.
func (c *Caller) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, client := range c.conns {
		client.Close()
		delete(c.conns, addr)
	}
}
