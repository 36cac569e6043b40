package scheduler

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/types"
)

// Bundle reservations (gang scheduling, DESIGN.md §9). A reservation
// carves a placement-group bundle's resources out of the node's general
// pool into a dedicated per-bundle pool. Member tasks are admitted against
// the bundle pool, and their completions return capacity to it — so the
// reservation survives task churn: an idle bundle stays reserved, which is
// the whole point of gang scheduling (the learner's slot is still there
// when its simulators finish a round). Releasing a group detaches its
// pools and moves their capacity back to the general pool.

// bundleKey identifies one reservation on this node.
type bundleKey struct {
	group  types.PlacementGroupID
	bundle int
}

// ReserveBundle reserves res for (group, bundle) out of the node's general
// pool. Idempotent: re-reserving an existing bundle reports success
// without carving twice (the global scheduler's rollback/retry paths
// re-issue reservations freely). Returns false when the capacity is not
// currently available — the caller rolls back the whole gang.
func (l *Local) ReserveBundle(group types.PlacementGroupID, bundle int, res types.Resources) bool {
	key := bundleKey{group: group, bundle: bundle}
	l.mu.Lock()
	_, held := l.bundles[key]
	ok := !l.stopped && (held || l.res.tryAcquire(res))
	if ok && !held {
		l.bundles[key] = newResourcePool(res)
	}
	l.mu.Unlock()
	if !ok || held {
		return ok
	}
	// Event logging is a control-plane RPC in distributed mode: keep it
	// outside l.mu so a slow control plane cannot freeze the node's
	// scheduling (same discipline as the object store's lock scope).
	l.cfg.Ctrl.LogEvent(types.Event{Kind: "gang-reserve", Node: l.cfg.Node,
		Detail: fmt.Sprintf("%v bundle %d %v", group, bundle, res)})
	return true
}

// ReleaseGroup releases every reservation this node holds for group,
// returning the bundles' capacity to the general pool (capacity held by
// still-running member tasks follows when they finish, via pool
// forwarding). Queued and waiting member tasks are evicted: with
// removed=false (placement rollback, e.g. a member node died) they respill
// to the global scheduler so they follow the group to its next placement;
// with removed=true they fail with the typed group-removed error.
// Idempotent — releasing an absent group is a no-op.
func (l *Local) ReleaseGroup(group types.PlacementGroupID, removed bool) {
	if l.isStopped() {
		return
	}
	// The members go before the reservations, so dispatch never finds one
	// stranded without its bundle and respills a member this call fails.
	members := l.evict(func(spec types.TaskSpec, _ map[types.ObjectID]bool) bool { return spec.Group == group }, true)
	l.mu.Lock()
	released := false
	for key, pool := range l.bundles {
		if key.group != group {
			continue
		}
		delete(l.bundles, key)
		l.res.release(pool.detach(l.res))
		released = true
	}
	l.mu.Unlock()
	fate := l.spillAway
	if removed {
		fate = func(spec types.TaskSpec) { l.FailTask(spec, types.ReasonGroupRemoved+spec.Group.String()) }
	}
	l.settle(members, fate)
	if released {
		l.cfg.Ctrl.LogEvent(types.Event{Kind: "gang-release", Node: l.cfg.Node,
			Detail: fmt.Sprintf("%v removed=%v members=%d", group, removed, len(members))})
		l.dispatchReady()
	}
}

// FailTask terminally fails a task, storing error payloads under every
// return object so blocked Gets observe the failure instead of hanging.
// Both the removal path above and the global scheduler's gang and job
// reclaim passes (which bury tasks through any live node — only a node
// holds an object store) route here. The claimable states normally stop
// at QUEUED: dispatch claims QUEUED→SCHEDULED via CAS, so a task at
// SCHEDULED or beyond is owned by a worker about to produce (or already
// producing) real bytes under its return IDs — burying it in parallel
// would publish a second, conflicting value for the same immutable
// object. Exactly one of {dispatch, fail} wins the QUEUED state.
//
// Job-stop burials (DESIGN.md §14) are the exception: they also claim
// SCHEDULED and RUNNING. A stop destroys the tenant's records and objects
// wholesale, so the conflicting-value hazard has nothing left to protect;
// the claim and the Disown below fence the worker's late terminal stamp,
// and the error payload Put is best-effort against a racing real value (a
// Get that observes the real bytes saw a task that genuinely completed
// first).
func (l *Local) FailTask(spec types.TaskSpec, reason string) {
	claim := []types.TaskStatus{types.TaskPending, types.TaskQueued}
	if strings.HasPrefix(reason, types.ReasonJobStopped) {
		claim = append(claim, types.TaskScheduled, types.TaskRunning)
	}
	// The claim reads the follower table; when the task is owned here, push
	// the ledger's view first so a stamp still waiting on the flusher (a
	// FINISHED the worker just wrote, say) is not buried from stale state.
	l.cfg.Ledger.FlushTask(spec.ID)
	// The burial is an ownership claim: it fences whichever node owned the
	// task (its late deltas no longer match Owner) and opens a one-stamp
	// tenure here that records the burying node and the reason.
	seq, ok := l.cfg.Ctrl.ClaimTask(spec.ID, claim, types.TaskFailed, l.cfg.Node)
	if !ok {
		return
	}
	for i := 0; i < spec.NumReturns; i++ {
		// Best effort: the store may itself be failing.
		_ = l.cfg.Store.Put(spec.ReturnID(i), codec.EncodeError(reason))
	}
	l.cfg.Ledger.Adopt(spec.ID, seq, types.TaskFailed)
	l.cfg.Ledger.Transition(spec.ID, types.TaskFailed, types.NilWorkerID, reason)
	l.cfg.Ledger.FlushTask(spec.ID)
	// Drop the tenure (a prior local one included) so a worker still running
	// the task under a job stop finds it unowned and its stamps vanish.
	l.cfg.Ledger.Disown(spec.ID)
}

// bundleLocked returns the reservation pool spec's bundle holds here, nil
// when this node holds none; mu held.
func (l *Local) bundleLocked(spec *types.TaskSpec) *resourcePool {
	return l.bundles[bundleKey{group: spec.Group, bundle: spec.Bundle}]
}

// poolFor resolves the resource pool a task draws from: its bundle's
// reservation pool when this node holds one, the general pool otherwise
// (including after the bundle's release — the detached pool's capacity
// moved to the general pool, so that is where late releases belong).
func (l *Local) poolFor(spec *types.TaskSpec) *resourcePool {
	if spec.InGroup() {
		l.mu.Lock()
		pool := l.bundleLocked(spec)
		l.mu.Unlock()
		if pool != nil {
			return pool
		}
	}
	return l.res
}

// Accounting snapshots the node's resource books for invariant checks:
// the general pool's (total, available) plus the count and summed capacity
// of live bundle reservations. With no tasks running and no reservations,
// avail == total and reserved is empty — the zero-partial-reservations
// invariant the gang tests assert.
func (l *Local) Accounting() (total, avail types.Resources, bundles int, reserved types.Resources) {
	l.mu.Lock()
	defer l.mu.Unlock()
	total, avail = l.res.snapshot()
	reserved = types.Resources{}
	for _, pool := range l.bundles {
		t, _ := pool.snapshot()
		reserved.Add(t)
		bundles++
	}
	return total, avail, bundles, reserved
}
