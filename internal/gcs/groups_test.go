package gcs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

func testGroupSpec(seed byte, bundles int) types.PlacementGroupSpec {
	var id types.PlacementGroupID
	id[0] = seed
	spec := types.PlacementGroupSpec{ID: id, Name: "g", Strategy: types.StrategyStrictSpread}
	for i := 0; i < bundles; i++ {
		spec.Bundles = append(spec.Bundles, types.Bundle{Resources: types.CPU(2)})
	}
	return spec
}

// removeGroup is group removal: the CAS to Removed from any live state.
func removeGroup(api API, id types.PlacementGroupID) bool {
	live := []types.PlacementGroupState{types.GroupPending, types.GroupPlacing, types.GroupPlaced}
	return api.CASPlacementGroupState(id, live, types.GroupRemoved, nil, 0)
}

func TestGroupTableLifecycle(t *testing.T) {
	s := NewStore(2)
	spec := testGroupSpec(1, 2)

	if !s.CreatePlacementGroup(spec) {
		t.Fatal("create failed")
	}
	if s.CreatePlacementGroup(spec) {
		t.Fatal("duplicate create must report false")
	}
	info, ok := s.GetPlacementGroup(spec.ID)
	if !ok || info.State != types.GroupPending || len(info.Spec.Bundles) != 2 {
		t.Fatalf("bad record after create: %+v ok=%v", info, ok)
	}

	// Claim, commit with bundle nodes, verify.
	var n1, n2 types.NodeID
	n1[0], n2[0] = 1, 2
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0) {
		t.Fatal("claim CAS failed")
	}
	if s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0) {
		t.Fatal("second claim must lose")
	}
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPlaced, []types.NodeID{n1, n2}, 0) {
		t.Fatal("commit CAS failed")
	}
	info, _ = s.GetPlacementGroup(spec.ID)
	if info.State != types.GroupPlaced || info.NodeFor(0) != n1 || info.NodeFor(1) != n2 {
		t.Fatalf("bad placed record: %+v", info)
	}
	if info.PlacedNs == 0 {
		t.Error("PlacedNs not stamped")
	}

	// Rollback clears the assignment.
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlaced}, types.GroupPending, nil, 0) {
		t.Fatal("rollback CAS failed")
	}
	info, _ = s.GetPlacementGroup(spec.ID)
	if info.State != types.GroupPending || info.BundleNodes != nil {
		t.Fatalf("rollback left assignment: %+v", info)
	}

	// Removal is terminal and idempotent.
	if !removeGroup(s, spec.ID) {
		t.Fatal("remove failed")
	}
	if removeGroup(s, spec.ID) {
		t.Fatal("second remove must report false")
	}
	if s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending, types.GroupRemoved}, types.GroupPlacing, nil, 0) {
		// Removed is in `from`, so the CAS is eligible — but allowing a
		// removed group back into Placing would resurrect it. The gang
		// pass never passes Removed in `from`; this documents that the
		// store itself does not special-case it.
		info, _ = s.GetPlacementGroup(spec.ID)
		if info.State != types.GroupPlacing {
			t.Fatal("inconsistent CAS result")
		}
	}
}

// TestGroupCASTokenDedup pins the §7-style idempotency: a retried CAS
// carrying the same token is reported won without re-applying.
func TestGroupCASTokenDedup(t *testing.T) {
	s := NewStore(2)
	spec := testGroupSpec(2, 1)
	s.CreatePlacementGroup(spec)

	const op = 0xBEEF
	if !s.CASPlacementGroupStateOp(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0, op) {
		t.Fatal("first CAS failed")
	}
	// The "response was lost" retry: same token, same transition. Without
	// dedup this would lose (state is no longer Pending) and the claimant
	// would wrongly back off.
	if !s.CASPlacementGroupStateOp(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0, op) {
		t.Fatal("retried CAS with same token must be reported won")
	}
	// A different token for the same transition properly loses.
	if s.CASPlacementGroupStateOp(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0, op+1) {
		t.Fatal("fresh CAS from wrong state must lose")
	}
}

// TestGroupSubscription checks create/transition/remove all publish.
func TestGroupSubscription(t *testing.T) {
	s := NewStore(2)
	sub := s.Subscribe(TopicPlacementGroups, types.NilPlacementGroupID)
	defer sub.Close()

	spec := testGroupSpec(3, 1)
	s.CreatePlacementGroup(spec)
	s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0)
	removeGroup(s, spec.ID)

	states := []types.PlacementGroupState{types.GroupPending, types.GroupPlacing, types.GroupRemoved}
	for _, want := range states {
		select {
		case raw := <-sub.C():
			info, err := DecodeGroupEvent(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if info.State != want {
				t.Fatalf("want state %v, got %v", want, info.State)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no event for state %v", want)
		}
	}
}

// TestGroupConcurrentCreateRemove races creates, removes, and CAS claims
// under -race: the record must end in a consistent terminal state and the
// store must never panic or corrupt.
func TestGroupConcurrentCreateRemove(t *testing.T) {
	s := NewStore(4)
	const groups = 16
	var wg sync.WaitGroup
	for i := 0; i < groups; i++ {
		spec := testGroupSpec(byte(10+i), 2)
		wg.Add(3)
		go func(spec types.PlacementGroupSpec) {
			defer wg.Done()
			s.CreatePlacementGroup(spec)
		}(spec)
		go func(id types.PlacementGroupID) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				s.CASPlacementGroupState(id, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0)
				s.CASPlacementGroupState(id, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPending, nil, 0)
			}
		}(spec.ID)
		go func(id types.PlacementGroupID) {
			defer wg.Done()
			removeGroup(s, id)
		}(spec.ID)
	}
	wg.Wait()
	for i := 0; i < groups; i++ {
		var id types.PlacementGroupID
		id[0] = byte(10 + i)
		info, ok := s.GetPlacementGroup(id)
		if !ok {
			continue // remove raced ahead of create; create then won — re-check
		}
		switch info.State {
		case types.GroupPending, types.GroupPlacing, types.GroupRemoved:
		default:
			t.Fatalf("group %d in impossible state %v", i, info.State)
		}
		if info.State == types.GroupRemoved && info.BundleNodes != nil {
			t.Fatalf("removed group %d kept bundle nodes", i)
		}
	}
}

// TestGangClaimTokenFencesStaleCommit pins the ROADMAP "gang claim tokens"
// fix: a claimant stalled past the stale-claim sweep must not commit over
// a successor's claim. The interleaving is exactly the one the sweep alone
// could not close — claimant A claims and stalls, the sweep resets the
// group, successor B claims — and the assertion is that A's late commit
// (carrying its stale token) loses while B's wins with B's placement.
func TestGangClaimTokenFencesStaleCommit(t *testing.T) {
	s := NewStore(2)
	spec := testGroupSpec(20, 1)
	s.CreatePlacementGroup(spec)

	const tokenA, tokenB = 0xA11CE, 0xB0B
	var nodeA, nodeB types.NodeID
	nodeA[0], nodeB[0] = 1, 2

	// A claims and stalls mid-reservation.
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, tokenA) {
		t.Fatal("claimant A's claim failed")
	}
	// The stale-claim sweep fences A out: token-less rollback to Pending.
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPending, nil, 0) {
		t.Fatal("sweep rollback failed")
	}
	// Successor B claims.
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, tokenB) {
		t.Fatal("successor B's claim failed")
	}
	// A wakes up and commits: the state IS Placing, so before claim tokens
	// this CAS won and installed A's placement over B's claim. The token
	// mismatch must now fail it.
	if s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPlaced, []types.NodeID{nodeA}, tokenA) {
		t.Fatal("stale claimant's commit must lose to the successor's claim")
	}
	// A's rollback attempt (reserve-failure path carries its claim) must
	// not yank B's live claim either.
	if s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPending, nil, tokenA) {
		t.Fatal("stale claimant's rollback must not clear the successor's claim")
	}
	// B commits normally.
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPlaced, []types.NodeID{nodeB}, tokenB) {
		t.Fatal("successor's commit must win")
	}
	info, ok := s.GetPlacementGroup(spec.ID)
	if !ok || info.State != types.GroupPlaced || len(info.BundleNodes) != 1 || info.BundleNodes[0] != nodeB {
		t.Fatalf("successor's placement clobbered: %+v ok=%v", info, ok)
	}
}

// TestGangClaimTokenLegacyPaths checks the fence stays out of the way of
// token-less callers: with no claim recorded, a claim-0 commit still works
// (pre-token behaviour), and rollbacks to Pending clear any stale token.
func TestGangClaimTokenLegacyPaths(t *testing.T) {
	s := NewStore(2)
	spec := testGroupSpec(21, 1)
	s.CreatePlacementGroup(spec)
	var n types.NodeID
	n[0] = 7

	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0) {
		t.Fatal("token-less claim failed")
	}
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPlaced, []types.NodeID{n}, 0) {
		t.Fatal("token-less commit with no recorded claim must pass")
	}
	// Roll back and run a tokened cycle; then a sweep reset must clear the
	// token so the next token-less cycle is unencumbered.
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlaced}, types.GroupPending, nil, 0) {
		t.Fatal("rollback failed")
	}
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 42) {
		t.Fatal("tokened claim failed")
	}
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPending, nil, 0) {
		t.Fatal("sweep reset failed")
	}
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, 0) {
		t.Fatal("token-less claim after sweep failed")
	}
	if !s.CASPlacementGroupState(spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPlaced, []types.NodeID{n}, 0) {
		t.Fatal("token cleared by sweep: token-less commit must pass")
	}
}
