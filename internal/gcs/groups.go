package gcs

import (
	"repro/internal/codec"
	"repro/internal/types"
)

// Placement-group table (DESIGN.md §9). Group records are durable like
// every other control-plane record: all writes flow through the kv store,
// so on a sharded deployment they are WAL'd and snapshotted with the shard
// that owns them, and gang-scheduling state survives shard failover.

// CreatePlacementGroup implements API: exactly-once insertion keyed by
// group ID. A duplicate create (client retry after a crash suppressed the
// ack) returns false with the original record intact.
func (s *Store) CreatePlacementGroup(spec types.PlacementGroupSpec) bool {
	now := s.NowNs()
	info := types.PlacementGroupInfo{
		Spec:             spec,
		State:            types.GroupPending,
		CreatedNs:        now,
		LastTransitionNs: now,
	}
	ok := s.db.PutIfAbsent(keyGroup+spec.ID.Hex(), codec.MustEncode(info))
	if ok {
		s.db.Publish(chanGroups, codec.MustEncode(info))
		s.logEvent(types.Event{Kind: "pg-create", Detail: spec.ID.String() + " " + spec.Strategy.String()})
	}
	return ok
}

// RemovePlacementGroup implements API: transition to the terminal Removed
// state from any live state. Removal is idempotent — a second remove (or a
// retry of one whose ack died with a shard) returns false without touching
// the record. The gang pass observes the transition and releases the
// group's reservations; local schedulers fail its pending member tasks.
func (s *Store) RemovePlacementGroup(id types.PlacementGroupID) bool {
	var removed types.PlacementGroupInfo
	won := false
	s.db.Update(keyGroup+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.PlacementGroupInfo](cur)
		if err != nil || info.State == types.GroupRemoved {
			return nil, false
		}
		now := s.NowNs()
		info.State = types.GroupRemoved
		info.BundleNodes = nil
		info.ClaimToken = 0
		info.RemovedNs = now
		info.LastTransitionNs = now
		removed, won = info, true
		return codec.MustEncode(info), true
	})
	if won {
		s.db.Publish(chanGroups, codec.MustEncode(removed))
		s.logEvent(types.Event{Kind: "pg-remove", Detail: id.String()})
	}
	return won
}

// GetPlacementGroup implements API.
func (s *Store) GetPlacementGroup(id types.PlacementGroupID) (types.PlacementGroupInfo, bool) {
	raw, ok := s.db.Get(keyGroup + id.Hex())
	if !ok {
		return types.PlacementGroupInfo{}, false
	}
	info, err := codec.DecodeAs[types.PlacementGroupInfo](raw)
	if err != nil {
		return types.PlacementGroupInfo{}, false
	}
	return info, true
}

// PlacementGroups implements API (inspection scan; the gang pass sweeps it,
// so a group whose pub/sub event was dropped is still placed eventually).
func (s *Store) PlacementGroups() []types.PlacementGroupInfo {
	keys := s.db.Keys(keyGroup)
	out := make([]types.PlacementGroupInfo, 0, len(keys))
	for _, k := range keys {
		if raw, ok := s.db.Get(k); ok {
			if info, err := codec.DecodeAs[types.PlacementGroupInfo](raw); err == nil {
				out = append(out, info)
			}
		}
	}
	return out
}

// CASPlacementGroupState implements API: the gang CAS under a claimant
// token. A transition to Placing records the claimant's token; a transition
// to Placed requires the caller's token to match the recorded claim — so a
// claimant stalled past the stale-claim sweep cannot commit over a
// successor's claim (the successor's Pending→Placing rewrote the token).
// Rollbacks to Pending clear the token.
func (s *Store) CASPlacementGroupState(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64) bool {
	return s.CASPlacementGroupStateOp(id, from, to, bundleNodes, claim, 0)
}

// CASPlacementGroupStateOp is CASPlacementGroupState with an idempotency
// token (0 = no dedup), mirroring CASTaskStatusOp: a retried claim whose
// original commit survived a shard crash is recognized by its token and
// reported won, so the gang pass proceeds instead of treating its own
// earlier commit as a lost race (which would strand the group in Placing).
func (s *Store) CASPlacementGroupStateOp(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64, op uint64) bool {
	now := s.NowNs()
	won := false
	dupWin := false
	var next types.PlacementGroupInfo
	s.db.Update(keyGroup+id.Hex(), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			return nil, false
		}
		info, err := codec.DecodeAs[types.PlacementGroupInfo](cur)
		if err != nil {
			return nil, false
		}
		if info.MutOps.Seen(op) {
			dupWin = true // this exact CAS already applied
			return nil, false
		}
		eligible := false
		for _, f := range from {
			if info.State == f {
				eligible = true
				break
			}
		}
		if !eligible {
			return nil, false
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
			return nil, false
		}
		// The same fence guards a tokened rollback out of Placing: a stale
		// claimant unwinding its failed pass must not yank a successor's
		// live claim. The sweep rolls back token-less (claim 0), which
		// stays a force — it exists to break claims whose owner died.
		if to == types.GroupPending && info.State == types.GroupPlacing &&
			claim != 0 && info.ClaimToken != claim {
			return nil, false
		}
		info.MutOps.Record(op, refOpHistory)
		info.State = to
		info.LastTransitionNs = now
		switch to {
		case types.GroupPlacing:
			info.ClaimToken = claim
		case types.GroupPlaced:
			info.BundleNodes = bundleNodes
			info.PlacedNs = now
		case types.GroupPending:
			info.BundleNodes = nil
			info.ClaimToken = 0
		case types.GroupRemoved:
			info.BundleNodes = nil
			info.ClaimToken = 0
			info.RemovedNs = now
		}
		won = true
		next = info
		return codec.MustEncode(info), true
	})
	if won {
		s.db.Publish(chanGroups, codec.MustEncode(next))
		s.logEvent(types.Event{Kind: "pg-cas:" + to.String(), Detail: id.String()})
	}
	return won || dupWin
}
