package gcs

import (
	"slices"

	"repro/internal/codec"
	"repro/internal/types"
)

// Placement-group table (DESIGN.md §9): a typed table like every other, so
// on a sharded deployment its records are WAL'd and snapshotted with the
// shard that owns them, and gang-scheduling state survives shard failover.

// CreatePlacementGroup implements API: exactly-once insertion keyed by
// group ID. A duplicate create (client retry after a crash suppressed the
// ack) returns false with the original record intact.
func (s *Store) CreatePlacementGroup(spec types.PlacementGroupSpec) bool {
	now := s.NowNs()
	info := types.PlacementGroupInfo{Spec: spec, State: types.GroupPending, CreatedNs: now, LastTransitionNs: now}
	created, _ := s.groups.mutate(spec.ID, upsert, func(rec *types.PlacementGroupInfo, exists bool) bool {
		if !exists {
			*rec = info.Clone()
		}
		return !exists
	})
	if created {
		s.db.Publish(chanGroups, codec.MustEncode(&info))
		s.logEvent(types.Event{Kind: "pg-create", Detail: spec.ID.String() + " " + spec.Strategy.String()})
	}
	return created
}

// GetPlacementGroup implements API.
func (s *Store) GetPlacementGroup(id types.PlacementGroupID) (types.PlacementGroupInfo, bool) {
	return s.groups.get(id)
}

// PlacementGroups implements API (inspection scan; the gang pass sweeps it,
// so a group whose pub/sub event was dropped is still placed eventually).
func (s *Store) PlacementGroups() []types.PlacementGroupInfo { return s.groups.collect(nil) }

// CASPlacementGroupState implements API: the gang CAS under a claimant
// token. A transition to Placing records the claimant's token; a transition
// to Placed requires the caller's token to match the recorded claim — so a
// claimant stalled past the stale-claim sweep cannot commit over a
// successor's claim (the successor's Pending→Placing rewrote the token).
// Rollbacks to Pending clear the token, and so does removal, the terminal
// transition to Removed from any live state.
func (s *Store) CASPlacementGroupState(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64) bool {
	return s.CASPlacementGroupStateOp(id, from, to, bundleNodes, claim, 0)
}

// CASPlacementGroupStateOp is CASPlacementGroupState with an idempotency
// token (0 = no dedup), mirroring ClaimTaskOp: a retried claim whose
// original commit survived a shard crash is recognized by its token and
// reported won, so the gang pass proceeds instead of treating its own
// earlier commit as a lost race (which would strand the group in Placing).
func (s *Store) CASPlacementGroupStateOp(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64, op uint64) bool {
	now := s.NowNs()
	dup := false
	var next types.PlacementGroupInfo
	won, _ := s.groups.mutate(id, existing, func(info *types.PlacementGroupInfo, _ bool) bool {
		if info.MutOps.Seen(op) {
			dup = true // this exact CAS already applied
			return false
		}
		if !slices.Contains(from, info.State) {
			return false
		}
		// Claim fencing: the Placed commit must come from whoever holds the
		// current Placing claim. A recorded token that does not match the
		// caller's means the claim changed hands (the stale-claim sweep
		// reset the group and a successor re-claimed it) — the stale
		// claimant's commit loses outright instead of installing a
		// placement whose reservations belong to nobody. Token-less commits
		// (claim 0) only pass while no claim is recorded, preserving legacy
		// callers without weakening the fence.
		if to == types.GroupPlaced && info.ClaimToken != claim {
			return false
		}
		// The same fence guards a tokened rollback out of Placing: a stale
		// claimant unwinding its failed pass must not yank a successor's
		// live claim. The sweep rolls back token-less (claim 0), which
		// stays a force — it exists to break claims whose owner died.
		if to == types.GroupPending && info.State == types.GroupPlacing &&
			claim != 0 && info.ClaimToken != claim {
			return false
		}
		info.MutOps.Record(op, refOpHistory)
		info.State = to
		info.LastTransitionNs = now
		switch to {
		case types.GroupPlacing:
			info.ClaimToken = claim
		case types.GroupPlaced:
			info.BundleNodes = slices.Clone(bundleNodes)
			info.PlacedNs = now
		case types.GroupPending:
			info.BundleNodes = nil
			info.ClaimToken = 0
		case types.GroupRemoved:
			info.BundleNodes = nil
			info.ClaimToken = 0
			info.RemovedNs = now
		}
		next = info.Clone()
		return true
	})
	if won {
		s.db.Publish(chanGroups, codec.MustEncode(&next))
		s.logEvent(types.Event{Kind: "pg-cas:" + to.String(), Detail: id.String()})
	}
	return won || dup
}
