package lifetime

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/types"
)

// Spill-migration (DESIGN.md §10): when a node drains, every object it
// still holds must move to a peer before the node deregisters. The
// transfer itself is the existing chunked pull path run in reverse — the
// draining source asks a target to pull the object from it — so large
// objects ride the same bounded-concurrency chunk streams, per-peer
// windows, and spilled-range reads as any other transfer. Ordering is the
// safety core: the target's new location is published (and verified
// visible) before the source deletes its copy, so a referenced object
// never has zero live locations; and the source holds a refcount borrow
// across each push so the cluster GC cannot reclaim the object mid-flight.

// MigrateInMethod is the transport method every node serves for drain
// migration: the draining source asks this node to pull one object from
// it. Payload: gob MigrateReq; empty response on success. The handler acks
// only after the object is locally resident AND its location is visible in
// the control plane, which is what lets the source delete afterwards.
const MigrateInMethod = "lifetime.migrateIn"

// MigrateReq asks the receiving node to pull one object from the sender.
type MigrateReq struct {
	ID   types.ObjectID
	From types.NodeID
}

// migrateFetchTimeout bounds the target-side pull of one object.
const migrateFetchTimeout = 30 * time.Second

// migratePublishWait bounds how long the target waits for its own
// AddObjectLocation to become visible before acking (the publish runs
// through the store's per-object pipeline and the control plane may be
// mid-failover).
const migratePublishWait = 10 * time.Second

// RegisterMigrateHandler serves MigrateInMethod: the target-side half of
// spill-migration. The pull goes through the node's PullManager, so it is
// chunked, deduplicated against concurrent fetches of the same object, and
// prefers memory copies.
func RegisterMigrateHandler(srv *transport.Server, pm *PullManager) {
	srv.Handle(MigrateInMethod, func(payload []byte) ([]byte, error) {
		req, err := codec.DecodeAs[MigrateReq](payload)
		if err != nil {
			return nil, fmt.Errorf("lifetime: bad migrate request: %w", err)
		}
		ctx, cancel := context.WithTimeout(pm.baseCtx, migrateFetchTimeout)
		defer cancel()
		if err := pm.Fetch(ctx, req.ID, []types.NodeID{req.From}); err != nil {
			return nil, fmt.Errorf("lifetime: migrate pull %v: %w", req.ID, err)
		}
		// Ack only once our location is published: the source deletes its
		// copy on this ack, and the no-copy-less-referenced-object
		// invariant needs the new location in the table first.
		self := pm.store.Node()
		deadline := time.Now().Add(migratePublishWait)
		for {
			if info, ok := pm.ctrl.GetObject(req.ID); ok && info.HasLocation(self) {
				return nil, nil
			}
			if !pm.store.Contains(req.ID) {
				return nil, fmt.Errorf("lifetime: migrated copy of %v vanished before publish", req.ID)
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("lifetime: migrate publish of %v not visible", req.ID)
			}
			select {
			case <-time.After(5 * time.Millisecond):
			case <-pm.baseCtx.Done():
				return nil, pm.baseCtx.Err()
			}
		}
	})
}

// Migrator is the source-side drain driver: it empties the local store by
// pushing every referenced object to an Active peer (via MigrateInMethod)
// and dropping garbage, re-listing until nothing is left. It rides on the
// node's PullManager for everything peer-shaped — store, control plane,
// address resolution, and the cached peer connections — so a drain adds
// no second connection per peer and no duplicate cache logic.
type Migrator struct {
	pm   *PullManager
	refs *Tracker

	migrated atomic.Int64
	dropped  atomic.Int64
}

// NewMigrator wires a migrator to the node's pull manager and reference
// tracker (whose borrows protect in-flight objects).
func NewMigrator(pm *PullManager, refs *Tracker) *Migrator {
	return &Migrator{pm: pm, refs: refs}
}

// Stats returns cumulative (objects migrated to peers, garbage dropped).
func (m *Migrator) Stats() (migrated, dropped int64) {
	return m.migrated.Load(), m.dropped.Load()
}

// drainRounds bounds the re-list loop: each round must make progress, and
// rounds beyond the first only exist to sweep objects that arrived while
// an earlier round ran (late task outputs, racing Puts).
const drainRounds = 20

// DrainObjects empties the local store: garbage (refcount zero after
// retention) is dropped, everything else is pushed to an Active peer with
// the location published before local deletion. abort, when non-nil, is
// polled between objects so an operator rollback (Draining→Active) stops
// the migration promptly; aborting returns a non-nil error. The store may
// keep receiving objects while this runs (a racing Put, a late output);
// the loop re-lists until a pass finds the store empty.
func (m *Migrator) DrainObjects(ctx context.Context, abort func() bool) error {
	var lastErr error
	for round := 0; round < drainRounds; round++ {
		ids := m.pm.store.Resident()
		if len(ids) == 0 {
			return nil
		}
		progress := false
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			if abort != nil && abort() {
				return fmt.Errorf("lifetime: drain aborted with %d objects left", len(ids))
			}
			moved, err := m.migrateOne(ctx, id)
			if err != nil {
				lastErr = err
				continue
			}
			if moved {
				progress = true
			}
		}
		if !progress {
			if lastErr == nil {
				lastErr = fmt.Errorf("lifetime: drain made no progress with %d objects resident", len(ids))
			}
			return lastErr
		}
	}
	if n := len(m.pm.store.Resident()); n > 0 {
		return fmt.Errorf("lifetime: drain still %d objects resident after %d rounds", n, drainRounds)
	}
	return nil
}

// migrateOne disposes of a single object: drop if garbage or already
// replicated on another Active node, push to a peer otherwise. Reports
// whether the object is gone from the local store.
func (m *Migrator) migrateOne(ctx context.Context, id types.ObjectID) (bool, error) {
	if !m.pm.store.Contains(id) {
		return true, nil // reclaimed or deleted since the listing
	}
	info, haveInfo := m.pm.ctrl.GetObject(id)
	if haveInfo {
		if info.EverRetained && info.RefCount == 0 {
			// Garbage: the GC channel would reclaim it anyway.
			if m.pm.store.Delete(id) {
				m.dropped.Add(1)
			}
			return true, nil
		}
		if m.replicatedElsewhere(info) {
			// A live Active peer already holds a copy; deleting the local
			// one cannot strand the object. Draining peers do not count —
			// two draining nodes must not each trust the other's copy.
			if m.pm.store.Delete(id) {
				m.migrated.Add(1)
			}
			return true, nil
		}
	}
	// Hold a borrow across the push so a concurrent release elsewhere
	// cannot let the GC reclaim the object mid-transfer. The borrow must be
	// visible cluster-wide BEFORE the peer registers its location — a
	// pending-only retain would let the destination's manager see a stale
	// zero and reclaim the copy it just accepted — so this is one of the
	// few paths that flushes the ledger inline.
	m.refs.Retain(id)
	m.refs.Flush()
	defer m.refs.Release(id)
	targets := m.targets()
	if len(targets) == 0 {
		return false, fmt.Errorf("lifetime: no Active peer to migrate %v to", id)
	}
	var lastErr error
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		sp := m.pm.obs.tracer.Begin("migrate", "lifetime.migrate")
		if err := m.pushTo(t, id); err != nil {
			lastErr = err // peer died or refused (e.g. full); try the next
			continue
		}
		sp.ObjectID = id
		sp.Detail = "to " + t.ID.Hex()
		sp.End()
		// Peer acked: its location is published and visible. Deleting the
		// local copy now leaves the object with at least one live location.
		if m.pm.store.Delete(id) {
			m.migrated.Add(1)
			m.pm.obs.migrated.Inc()
		}
		return true, nil
	}
	return false, lastErr
}

// replicatedElsewhere reports whether another Active live node already
// holds a copy.
func (m *Migrator) replicatedElsewhere(info types.ObjectInfo) bool {
	self := m.pm.store.Node()
	for _, loc := range info.Locations {
		if loc == self {
			continue
		}
		if n, ok := m.pm.ctrl.GetNode(loc); ok && n.Schedulable() {
			return true
		}
	}
	return false
}

// migrateTargetAttempts bounds how many peers one object is offered to
// before its round gives up (the next round retries with a fresh view).
const migrateTargetAttempts = 3

// targets returns candidate receivers: Active live peers, least-loaded
// stores first so migrated bytes spread toward free memory.
func (m *Migrator) targets() []types.NodeInfo {
	self := m.pm.store.Node()
	var out []types.NodeInfo
	for _, n := range m.pm.ctrl.Nodes() {
		if n.ID == self || !n.Schedulable() {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		li := out[i].Store.UsedBytes + out[i].Store.SpilledBytes
		lj := out[j].Store.UsedBytes + out[j].Store.SpilledBytes
		return li < lj
	})
	if len(out) > migrateTargetAttempts {
		out = out[:migrateTargetAttempts]
	}
	return out
}

// pushTo asks one peer to pull id from this node, over the pull
// manager's cached connection to that peer (shared with ordinary pulls;
// closed by PullManager.Close at node shutdown).
func (m *Migrator) pushTo(target types.NodeInfo, id types.ObjectID) error {
	addr := target.Addr
	if addr == "" {
		if a, ok := m.pm.peerAddr(target.ID); ok {
			addr = a
		} else {
			return fmt.Errorf("lifetime: no address for %v", target.ID)
		}
	}
	req := codec.MustEncode(MigrateReq{ID: id, From: m.pm.store.Node()})
	_, err := m.pm.call(addr, MigrateInMethod, req)
	return err
}
