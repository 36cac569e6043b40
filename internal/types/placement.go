package types

import (
	"encoding/hex"
	"fmt"
	"slices"
)

// PlacementGroupID names a placement group: a gang-scheduled set of
// resource bundles reserved atomically across the cluster.
type PlacementGroupID [IDSize]byte

// NilPlacementGroupID is the zero value; a TaskSpec carrying it belongs to
// no group.
var NilPlacementGroupID PlacementGroupID

func (id PlacementGroupID) String() string { return "pg-" + shortHex(id[:]) }

// Hex returns the full hexadecimal form, used as a control-plane key.
func (id PlacementGroupID) Hex() string { return hex.EncodeToString(id[:]) }

// IsNil reports whether the ID is the zero value.
func (id PlacementGroupID) IsNil() bool { return id == NilPlacementGroupID }

// ParsePlacementGroupID parses the full hexadecimal form produced by Hex.
func ParsePlacementGroupID(s string) (PlacementGroupID, error) {
	var id PlacementGroupID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != IDSize {
		return id, fmt.Errorf("types: bad placement group id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// PlacementStrategy selects how a group's bundles map onto nodes.
type PlacementStrategy int

const (
	// StrategyPack places bundles on as few nodes as possible (co-location:
	// a learner next to its simulators minimizes object transfer).
	StrategyPack PlacementStrategy = iota
	// StrategyStrictSpread places every bundle on a distinct node
	// (fault isolation: one node death loses at most one bundle).
	StrategyStrictSpread
)

var strategyNames = [...]string{"PACK", "STRICT_SPREAD"}

func (s PlacementStrategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("PlacementStrategy(%d)", int(s))
	}
	return strategyNames[s]
}

// Bundle is one unit of a placement group: a resource reservation that
// member tasks draw from. Bundles are indexed by position in the spec.
type Bundle struct {
	Resources Resources
}

// PlacementGroupSpec is the immutable half of a placement-group record.
type PlacementGroupSpec struct {
	ID       PlacementGroupID
	Name     string // human label for dashboards; not a key
	Strategy PlacementStrategy
	Bundles  []Bundle
}

// Validate checks the spec for structural errors before creation.
func (s *PlacementGroupSpec) Validate() error {
	if s.ID.IsNil() {
		return fmt.Errorf("types: placement group has nil ID")
	}
	if len(s.Bundles) == 0 {
		return fmt.Errorf("types: placement group %s has no bundles", s.ID)
	}
	for i, b := range s.Bundles {
		if err := b.Resources.Validate(); err != nil {
			return fmt.Errorf("placement group %s bundle %d: %w", s.ID, i, err)
		}
		if b.Resources.IsZero() {
			return fmt.Errorf("types: placement group %s bundle %d reserves nothing", s.ID, i)
		}
	}
	return nil
}

// PlacementGroupState is the lifecycle state of a group record.
type PlacementGroupState int

// Group lifecycle. Placing marks a global scheduler's claim while it issues
// bundle reservations (the CAS Pending→Placing makes exactly one scheduler
// reserve); a claim that dies mid-placement is swept back to Pending after
// its reservations are rolled back. Removed is terminal.
const (
	GroupPending PlacementGroupState = iota
	GroupPlacing
	GroupPlaced
	GroupRemoved
)

var groupStateNames = [...]string{"PENDING", "PLACING", "PLACED", "REMOVED"}

func (s PlacementGroupState) String() string {
	if s < 0 || int(s) >= len(groupStateNames) {
		return fmt.Sprintf("PlacementGroupState(%d)", int(s))
	}
	return groupStateNames[s]
}

// PlacementGroupInfo is the placement-group table record: spec plus mutable
// gang-scheduling state. It is durable like every other control-plane
// record (WAL + snapshot on a sharded deployment).
type PlacementGroupInfo struct {
	Spec  PlacementGroupSpec
	State PlacementGroupState
	// BundleNodes[i] is the node holding bundle i's reservation; valid only
	// in GroupPlaced (cleared when placement rolls back to Pending).
	BundleNodes []NodeID
	// Timestamps in nanoseconds since the cluster epoch.
	CreatedNs        int64
	PlacedNs         int64
	RemovedNs        int64
	LastTransitionNs int64
	// MutOps dedups a state CAS retried across a shard crash (see OpRing).
	MutOps OpRing
	// ClaimToken identifies which scheduler holds the Placing claim: set by
	// the Pending→Placing CAS, required to match at the Placing→Placed
	// commit, and cleared on every rollback to Pending. It closes the
	// stale-claimant hole the sweep alone could not: a claimant stalled
	// past the stale-claim sweep cannot commit over a successor's claim,
	// because the successor's claim rewrote the token (mirrors the MutOps
	// idempotency rings; see gcs.Store.CASPlacementGroupState).
	ClaimToken uint64
}

// Clone returns a deep copy: no slice or map is shared with g.
func (g *PlacementGroupInfo) Clone() PlacementGroupInfo {
	c := *g
	c.Spec.Bundles = slices.Clone(g.Spec.Bundles)
	for i := range c.Spec.Bundles {
		c.Spec.Bundles[i].Resources = c.Spec.Bundles[i].Resources.Clone()
	}
	c.BundleNodes = slices.Clone(g.BundleNodes)
	c.MutOps = slices.Clone(g.MutOps)
	return c
}

// NodeFor returns the node holding bundle's reservation, or nil ID when the
// group is not placed or the index is out of range.
func (g *PlacementGroupInfo) NodeFor(bundle int) NodeID {
	if g.State != GroupPlaced || bundle < 0 || bundle >= len(g.BundleNodes) {
		return NilNodeID
	}
	return g.BundleNodes[bundle]
}

// ReasonGroupRemoved prefixes the failure message stored into the return
// objects of member tasks whose placement group was removed; the core layer
// recognizes it and surfaces a typed error from Get.
const ReasonGroupRemoved = "placement-group-removed: "
