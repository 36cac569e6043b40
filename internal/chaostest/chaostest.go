// Package chaostest is the reusable cluster-wide invariant checker shared
// by the chaos suites (shard kills, gang atomicity, drain kill matrix,
// autoscaler elasticity). Every assertion is an *await*: chaos tests
// observe a cluster mid-recovery, so the checker polls until the invariant
// holds — and, crucially, only concludes from a complete view: on a
// sharded control plane a dead shard's rows are simply absent from fan-out
// scans, so every conclusion requires all shards answering (gcs.Pinger),
// otherwise a poll landing in the kill window would pass vacuously.
//
// The invariants:
//
//   - Refcount conservation: after all handles are released, no object
//     anywhere still carries a reference — a retain accepted before a
//     crash is never forgotten, and every release eventually lands.
//   - Task-state conservation: every submitted task eventually reaches
//     exactly one terminal state in the follower task table, across owner
//     deaths, ownership transfers, and shard crashes (DESIGN.md §13).
//   - Bundle-pool accounting: a quiescent node's books balance — zero
//     bundle reservations, availability equal to total capacity (checked
//     against scheduler.Local.Accounting, the same surface the gang
//     invariant tests pinned).
//   - Referenced reachability: no referenced object is lost — every
//     object with a positive refcount either has a live location or is
//     reconstructable from lineage (non-nil producer).
package chaostest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// Books is the per-node accounting surface the checker reads;
// scheduler.Local implements it.
type Books interface {
	Accounting() (total, avail types.Resources, bundles int, reserved types.Resources)
}

// Checker polls cluster-wide invariants through the control plane.
type Checker struct {
	api gcs.API
}

// New builds a checker over the cluster's merged control-plane view (the
// in-process store, or a sharded client whose fan-outs merge all shards).
func New(api gcs.API) *Checker { return &Checker{api: api} }

// pollInterval is the await loops' re-check cadence.
const pollInterval = 10 * time.Millisecond

// shardsUp reports whether scans currently reflect every shard. A non-
// Pinger control plane (plain in-process store) is always complete.
func (c *Checker) shardsUp() bool {
	if p, ok := c.api.(gcs.Pinger); ok {
		return p.Ping()
	}
	return true
}

// AwaitZeroRefcounts asserts refcount conservation across shards: within
// the deadline, every object's cluster-wide count drains to zero while all
// shards are answering.
func (c *Checker) AwaitZeroRefcounts(t testing.TB, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		up := c.shardsUp()
		leaked := 0
		for _, o := range c.api.Objects() {
			if o.RefCount != 0 {
				leaked++
			}
		}
		if leaked == 0 && up {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaostest: %d objects still hold references (all shards up: %v)", leaked, up)
		}
		time.Sleep(pollInterval)
	}
}

// Ledger is the per-node reference-ledger surface the conservation
// checker samples; lifetime.Tracker implements it. HeldAll is the node's
// authoritative held counts, Unflushed the net deltas the control plane
// has not yet acked (pending entries plus parked retry batches).
type Ledger interface {
	HeldAll() map[types.ObjectID]int64
	Unflushed() map[types.ObjectID]int64
}

// AwaitRefConservation asserts the ownership protocol's conservation law
// mid-flight: for every object, the GCS's flushed count plus the net
// unflushed deltas across all live ledgers equals the references those
// ledgers hold. The equality is eventual, not instantaneous — a batch the
// shard committed but whose ack was lost is transiently counted twice
// (in RefCount and in the retry queue) until redelivery dedups it — so
// the await polls, sampling all ledgers and the table in each round, and
// only concludes on a complete shard view.
func (c *Checker) AwaitRefConservation(t testing.TB, within time.Duration, ledgers map[string]Ledger) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		up := c.shardsUp()
		bad := c.conservationViolations(ledgers)
		if up && len(bad) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaostest: refcount conservation violated (all shards up: %v): %v", up, bad)
		}
		time.Sleep(pollInterval)
	}
}

// conservationViolations samples every ledger plus the object table and
// returns a description of each object where flushed + unflushed != held.
func (c *Checker) conservationViolations(ledgers map[string]Ledger) []string {
	held := make(map[types.ObjectID]int64)
	unflushed := make(map[types.ObjectID]int64)
	for _, l := range ledgers {
		for id, n := range l.HeldAll() {
			held[id] += n
		}
		for id, d := range l.Unflushed() {
			unflushed[id] += d
		}
	}
	flushed := make(map[types.ObjectID]int64)
	for _, o := range c.api.Objects() {
		flushed[o.ID] = o.RefCount
	}
	ids := make(map[types.ObjectID]bool)
	for id := range held {
		ids[id] = true
	}
	for id := range unflushed {
		ids[id] = true
	}
	for id := range flushed {
		ids[id] = true
	}
	var bad []string
	for id := range ids {
		if flushed[id]+unflushed[id] != held[id] {
			bad = append(bad, fmt.Sprintf("%v: flushed=%d unflushed=%d held=%d",
				id, flushed[id], unflushed[id], held[id]))
		}
	}
	return bad
}

// AwaitTaskConservation asserts the owner-based task-state protocol's
// conservation law (DESIGN.md §13): once the workload quiesces and owner
// ledgers settle their flushes, every task the cluster admitted is in the
// follower table in exactly one terminal state (FINISHED, FAILED, or LOST)
// — no task is forgotten mid-ownership-tenure, left claimed by a dead
// owner, or stranded non-terminal by a fence that consumed its final
// delta. Chaos can legitimately leave a task mid-replay at any instant, so
// the assertion is an await; and since a dead shard's rows vanish from
// fan-out scans, it only concludes on a complete shard view. Pass the IDs
// of every submitted root task; lineage replays and retries collapse onto
// the same records, so the expected terminal count is exactly len(ids).
func (c *Checker) AwaitTaskConservation(t testing.TB, within time.Duration, ids []types.TaskID) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		up := c.shardsUp()
		bad := c.taskConservationViolations(ids)
		if up && len(bad) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaostest: task-state conservation violated for %d/%d tasks (all shards up: %v): %v",
				len(bad), len(ids), up, bad)
		}
		time.Sleep(pollInterval)
	}
}

// taskConservationViolations scans the follower table and describes every
// submitted task that is absent or not yet in a terminal state.
func (c *Checker) taskConservationViolations(ids []types.TaskID) []string {
	table := make(map[types.TaskID]types.TaskState)
	tasks, _ := c.api.ScanTasks(gcs.TaskFilter{})
	for _, ts := range tasks {
		table[ts.Spec.ID] = ts
	}
	var bad []string
	for _, id := range ids {
		st, ok := table[id]
		if !ok {
			bad = append(bad, fmt.Sprintf("%v: missing from the task table", id))
			continue
		}
		if !st.Status.Terminal() {
			bad = append(bad, fmt.Sprintf("%v: %v (owner %v seq %d)", id, st.Status, st.Owner, st.OwnerSeq))
		}
	}
	return bad
}

// AwaitQuiescentBooks asserts bundle-pool accounting on every supplied
// node: zero bundle reservations and full availability — the gang
// invariant that a group which cannot fully place (or was rolled back)
// leaves nothing behind. Keys label nodes in failure messages.
func (c *Checker) AwaitQuiescentBooks(t testing.TB, within time.Duration, nodes map[string]Books) {
	t.Helper()
	deadline := time.Now().Add(within)
	for label, b := range nodes {
		for {
			total, avail, bundles, reserved := b.Accounting()
			if bundles == 0 && reserved.IsZero() && total.Fits(avail) && avail.Fits(total) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("chaostest: node %s books not quiescent: total=%v avail=%v bundles=%d reserved=%v",
					label, total, avail, bundles, reserved)
			}
			time.Sleep(pollInterval)
		}
	}
}

// AwaitReferencedReachable asserts that no referenced object is lost:
// within the deadline (and with all shards answering), every object whose
// refcount is positive either is Ready with at least one location on a
// live node, is still Pending (its producer in flight), or — if Lost —
// carries a producer edge so lineage replay can reconstruct it.
func (c *Checker) AwaitReferencedReachable(t testing.TB, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		up := c.shardsUp()
		bad := c.unreachableReferenced()
		if up && len(bad) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaostest: %d referenced objects unreachable (all shards up: %v): %v", len(bad), up, bad)
		}
		time.Sleep(pollInterval)
	}
}

// unreachableReferenced returns a description of every referenced object
// that currently has neither a live copy nor a lineage path back to one.
func (c *Checker) unreachableReferenced() []string {
	alive := make(map[types.NodeID]bool)
	for _, n := range c.api.Nodes() {
		if n.Alive {
			alive[n.ID] = true
		}
	}
	var bad []string
	for _, o := range c.api.Objects() {
		if o.RefCount <= 0 {
			continue
		}
		switch o.State {
		case types.ObjectReady:
			located := false
			for _, l := range o.Locations {
				if alive[l] {
					located = true
					break
				}
			}
			if !located {
				bad = append(bad, fmt.Sprintf("%v READY with no live location", o.ID))
			}
		case types.ObjectLost:
			if o.Producer.IsNil() {
				bad = append(bad, fmt.Sprintf("%v LOST and not reconstructable", o.ID))
			}
		}
	}
	return bad
}

// AwaitDrainSettled asserts the drain state machine's terminal guarantee
// for one node: within the deadline its record reads Drained (migration
// finished, node deregistering or gone), dead (the chaos killed it), or
// rolled back to Active and admitting again — never wedged in Draining.
func (c *Checker) AwaitDrainSettled(t testing.TB, within time.Duration, node types.NodeID) types.NodeState {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		info, ok := c.api.GetNode(node)
		if ok && (!info.Alive || info.State != types.NodeDraining) {
			return info.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaostest: node %v still Draining after %v (ok=%v)", node, within, ok)
		}
		time.Sleep(pollInterval)
	}
}
