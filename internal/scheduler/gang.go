package scheduler

import (
	"crypto/rand"
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// newClaimToken returns a random non-zero claimant token for the gang
// claim/commit protocol (ROADMAP "gang claim tokens"): the Pending→Placing
// CAS records it and the Placing→Placed commit requires it, so a claimant
// stalled past the stale-claim sweep cannot commit over a successor's
// claim. Collisions only re-open the (previously always-open) hole, never
// corrupt state.
func newClaimToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 1 // degraded but non-zero
	}
	return binary.BigEndian.Uint64(b[:]) | 1
}

// Gang-scheduled placement groups (DESIGN.md §9). The global scheduler is
// the only component with the cluster-wide view, so it runs the
// reservation pass: claim a Pending group (CAS Pending→Placing, so several
// globals never double-reserve), plan every bundle against cluster-wide
// feasibility, issue bundle reservations to the chosen nodes, and commit
// (CAS Placing→Placed) only when all of them held — any failure rolls the
// group back to Pending with zero reservations left behind. Placed groups
// are watched: a member node's death releases the whole group's
// reservations and re-places the bundle set as a unit. Removed groups are
// reaped: reservations released everywhere, parked member tasks failed
// with the typed group-removed error.

// ReserveFunc asks a node's local scheduler to hold a bundle reservation
// (an RPC in distributed mode, like AssignFunc).
type ReserveFunc func(node types.NodeID, addr string, group types.PlacementGroupID, bundle int, res types.Resources) error

// GroupReleaseFunc asks a node to drop every reservation it holds for the
// group. removed distinguishes terminal removal (member tasks fail) from
// placement rollback (member tasks respill and follow the group).
type GroupReleaseFunc func(node types.NodeID, addr string, group types.PlacementGroupID, removed bool) error

// FailFunc asks a node to terminally fail a task, storing error payloads
// under its return objects so blocked Gets observe the failure. The global
// scheduler has no object store of its own, so burying a member task of a
// removed group is delegated to any live node.
type FailFunc func(node types.NodeID, addr string, spec types.TaskSpec, reason string) error

// gangIdleResync bounds how often an idle gang pass re-scans the group
// table when no groups are known to exist: the scan is a fan-out RPC on a
// sharded control plane, so a groupless cluster should not pay it on
// every retry tick. Group events clear the idle latch immediately; the
// coarse resync is the at-least-once fallback for a dropped event.
const gangIdleResync = 2 * time.Second

// gangScanInterval bounds unforced re-scans when groups exist: group and
// node events force an immediate pass, so the periodic scan only covers
// capacity freed by ordinary task churn (heartbeats publish no events)
// and needs no 50 ms cadence.
const gangScanInterval = 250 * time.Millisecond

// probeInterval bounds how often a Placed group's bundle reservations are
// re-verified against their nodes (checkGroupMembers' repair probe).
const probeInterval = time.Second

// stalePlacing is how long a group may sit in Placing before
// sweepStalePlacing takes its claimant for dead: an order of magnitude
// above any healthy reservation pass.
const stalePlacing = 10 * sweepAge

// gangPass reconciles every placement group against the cluster. It runs
// on group events, node events, and the retry tick, and is idempotent —
// the group table is the single source of truth, so a pass that observes a
// stale record is corrected by the next one.
func (g *Global) gangPass(forced bool) {
	if g.cfg.Reserve == nil {
		return // gang scheduling not wired (minimal test deployments)
	}
	g.retryFailedReleases()
	g.mu.Lock()
	wait := gangScanInterval
	if g.gangIdle {
		wait = gangIdleResync
	}
	skip := !forced && time.Since(g.gangScanned) < wait
	g.mu.Unlock()
	if skip {
		return
	}
	groups := g.cfg.Ctrl.PlacementGroups()
	g.mu.Lock()
	g.gangIdle = len(groups) == 0
	g.gangScanned = time.Now()
	// Cache the scan for member-task routing: retryParked may re-place a
	// whole gang's parked members right after this pass, and one table
	// scan serving all of them beats a GetPlacementGroup RPC per member.
	g.groupCache = make(map[types.PlacementGroupID]types.PlacementGroupInfo, len(groups))
	for _, info := range groups {
		g.groupCache[info.Spec.ID] = info
	}
	// Prune per-group bookkeeping for groups gone from the table (today
	// records persist, so this fires once table tombstoning lands; the
	// maps stay bounded by the table either way).
	if len(g.probeAt) > len(groups) || len(g.reapedGroups) > len(groups) {
		live := make(map[types.PlacementGroupID]bool, len(groups))
		for _, info := range groups {
			live[info.Spec.ID] = true
		}
		for id := range g.probeAt {
			if !live[id] {
				delete(g.probeAt, id)
			}
		}
		for id := range g.reapedGroups {
			if !live[id] {
				delete(g.reapedGroups, id)
			}
		}
	}
	g.mu.Unlock()
	for _, info := range groups {
		switch info.State {
		case types.GroupPending:
			g.tryPlaceGroup(info)
		case types.GroupPlacing:
			g.sweepStalePlacing(info)
		case types.GroupPlaced:
			g.checkGroupMembers(info)
		case types.GroupRemoved:
			g.reapRemoved(info)
		}
	}
}

// tryPlaceGroup admits a Pending group all-or-nothing. Planning happens
// before the claim so an infeasible group costs no CAS churn and — the
// invariant the tests pin — leaves zero reservations behind. The claim
// carries a claimant token that the commit must present again, closing the
// stale-claimant commit hole (see newClaimToken).
func (g *Global) tryPlaceGroup(info types.PlacementGroupInfo) {
	nodes := g.schedulableNodes()
	plan := planBundles(info.Spec, nodes)
	if plan == nil {
		return
	}
	id := info.Spec.ID
	claim := newClaimToken()
	if !g.cfg.Ctrl.CASPlacementGroupState(id, []types.PlacementGroupState{types.GroupPending}, types.GroupPlacing, nil, claim) {
		return // another scheduler claimed it, or it was removed
	}
	addr := addrIndex(nodes)
	for i, node := range plan {
		if err := g.cfg.Reserve(node, addr[node], id, i, info.Spec.Bundles[i].Resources); err != nil {
			// The node raced away (death, or its capacity went elsewhere
			// between heartbeat and reservation): roll the whole gang back.
			// The rollback carries our claim so it can never yank a
			// successor's claim if ours was already swept stale.
			g.releaseEverywhere(id, false, plan)
			g.cfg.Ctrl.CASPlacementGroupState(id, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPending, nil, claim)
			return
		}
	}
	if !g.cfg.Ctrl.CASPlacementGroupState(id, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPlaced, plan, claim) {
		// Removed while we were reserving — or our claim was swept stale
		// and a successor re-claimed (the token mismatch fails us): undo.
		g.releaseEverywhere(id, false, plan)
		return
	}
	g.cacheGroup(id, types.GroupPlaced, plan)
	g.cfg.Ctrl.LogEvent(types.Event{Kind: "gang-placed", Detail: id.String() + " " + info.Spec.Strategy.String()})
	g.retryParked() // parked member tasks can now route to their bundles
}

// sweepStalePlacing rescues a group stranded in Placing — its claimant
// died mid-reservation. The CAS back to Pending runs FIRST: it fences the
// (possibly still live) claimant's Placing→Placed commit — both by state
// and by clearing the recorded claim token, so even a claimant that
// stalls past the stale threshold, gets swept, and wakes after a NEW
// claimant re-claimed cannot commit: the successor's claim rewrote the
// token and the stale commit's token no longer matches (the ROADMAP
// "gang claim tokens" hole, now closed at the commit CAS itself). Only a
// claim older than stalePlacing is swept.
func (g *Global) sweepStalePlacing(info types.PlacementGroupInfo) {
	if g.cfg.Ctrl.NowNs()-info.LastTransitionNs < stalePlacing.Nanoseconds() {
		return // recent claim: assume its owner is still reserving
	}
	if !g.cfg.Ctrl.CASPlacementGroupState(info.Spec.ID, []types.PlacementGroupState{types.GroupPlacing}, types.GroupPending, nil, 0) {
		return // claimant committed (or group removed) meanwhile
	}
	g.cacheGroup(info.Spec.ID, types.GroupPending, nil)
	// The dead claimant's plan is unknowable (BundleNodes commits only at
	// Placed), so no holders can be targeted; the blanket plus the live
	// claimant's own rollback cover this path.
	g.releaseEverywhere(info.Spec.ID, false, nil)
}

// checkGroupMembers keeps a Placed group truthful. A dead bundle node
// rolls the whole placement back: every surviving reservation is released
// (survivors respill their queued member tasks) and the group re-enters
// Pending, to be re-placed as a unit — partial placements never linger.
// For live placements it re-issues the bundle reservations (idempotent on
// the nodes): a reservation lost to a rollback/claim race is re-carved,
// and a node that can no longer honor it forces the same full rollback —
// so every reservation-loss mode converges within one pass.
func (g *Global) checkGroupMembers(info types.PlacementGroupInfo) {
	probe := g.shouldProbe(info.Spec.ID)
	rollback := types.NilNodeID
	type probed struct {
		node types.NodeID
		addr string
	}
	var reProbed []probed
	// abort marks an unreadable node record (shard mid-failover): not a
	// death verdict — rolling back a healthy gang over it would evict its
	// members and strand the unreachable node's reservation. The pass is
	// cut short, but any probes already issued still run the stale-scan
	// undo below (they may have re-carved on nodes the group has left).
	abort := false
	for i, node := range info.BundleNodes {
		n, ok := g.cfg.Ctrl.GetNode(node)
		if !ok {
			abort = true
			break
		}
		// A draining member node rolls the gang back exactly like a dead
		// one: the drain protocol re-places gang reservations as a unit
		// (DESIGN.md §10), and the draining node's release respills its
		// queued members so they follow the group.
		if !n.Schedulable() {
			rollback = node
			break
		}
		if !probe {
			continue
		}
		if err := g.cfg.Reserve(node, n.Addr, info.Spec.ID, i, info.Spec.Bundles[i].Resources); err != nil {
			rollback = node
			break
		}
		reProbed = append(reProbed, probed{node: node, addr: n.Addr})
	}
	if rollback.IsNil() && !abort && len(reProbed) == 0 {
		return
	}
	// Guard against acting on a stale scan: another scheduler may already
	// have rolled back (and re-placed) the group, and our CAS from=[Placed]
	// cannot tell the incarnations apart. Re-fetch and only proceed when
	// the placement we judged is still the current one. This runs even
	// when every probe succeeded: a probe racing another scheduler's
	// rollback re-carves reservations on nodes the group is leaving, and
	// without the undo below those carves would leak (and could make a
	// just-fitting group permanently unplaceable).
	fresh, ok := g.cfg.Ctrl.GetPlacementGroup(info.Spec.ID)
	if !ok {
		// Transient read failure (e.g. shard failover): indistinguishable
		// from nothing having changed, so leave the probed reservations
		// alone and let the next pass re-judge — tearing down a healthy
		// placement over a failed read would be strictly worse.
		return
	}
	if fresh.State != types.GroupPlaced || !sameNodes(fresh.BundleNodes, info.BundleNodes) {
		// The placement changed under us: undo our probes' re-carves on
		// nodes outside the current placement (a release that overlaps an
		// in-flight re-place is healed by the next probe).
		for _, p := range reProbed {
			if g.cfg.ReleaseGroup == nil {
				break // partial wiring: tolerated like releaseEverywhere
			}
			if holdsNode(fresh.BundleNodes, p.node) {
				continue
			}
			if err := g.cfg.ReleaseGroup(p.node, p.addr, info.Spec.ID, false); err != nil {
				g.mu.Lock()
				g.releaseRetry[releaseKey{group: info.Spec.ID, node: p.node}] = false
				g.mu.Unlock()
			}
		}
		return
	}
	if rollback.IsNil() || abort {
		// Placement verified current (so any probes re-carved legitimate
		// reservations); with abort set the node-dead judgement is
		// deferred to a pass with a complete view.
		return
	}
	if !g.cfg.Ctrl.CASPlacementGroupState(info.Spec.ID, []types.PlacementGroupState{types.GroupPlaced}, types.GroupPending, nil, 0) {
		return
	}
	g.cacheGroup(info.Spec.ID, types.GroupPending, nil)
	g.cfg.Ctrl.LogEvent(types.Event{Kind: "gang-rollback", Node: rollback, Detail: info.Spec.ID.String()})
	g.releaseEverywhere(info.Spec.ID, false, info.BundleNodes)
	// Re-place immediately if the cluster still fits the group.
	if cur, ok := g.cfg.Ctrl.GetPlacementGroup(info.Spec.ID); ok && cur.State == types.GroupPending {
		g.tryPlaceGroup(cur)
	}
}

func sameNodes(a, b []types.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func holdsNode(nodes []types.NodeID, id types.NodeID) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}

// reapRemoved cleans up after a terminal removal: reservations released on
// every live node (their local schedulers fail queued member tasks with
// the typed error) and member tasks parked here failed through a node's
// store. Reaping is idempotent across passes and schedulers; the local
// reaped-set only saves redundant RPCs, and a reap is recorded done only
// when every release succeeded — a transient RPC failure retries on the
// next pass instead of leaking the node's reservation forever.
func (g *Global) reapRemoved(info types.PlacementGroupInfo) {
	id := info.Spec.ID
	g.mu.Lock()
	done := g.reapedGroups[id]
	g.mu.Unlock()
	if done {
		return
	}
	// Only record the reap complete when the node view was complete for
	// the whole pass: a control-plane shard mid-failover hides its nodes
	// from the release blanket, and marking done on a degraded view would
	// leak any reservation a hidden node still holds. The view is probed
	// both before and after the blanket — a post-release-only check could
	// certify a scan that ran while a shard was still down (the chaos
	// suite's "only conclude with all shards answering" idiom).
	viewOK := g.nodesViewComplete()
	ok := g.releaseEverywhere(id, true, nil)
	nodes := g.schedulableNodes() // one scan shared across all member burials
	for _, spec := range g.takeParkedMembers(id) {
		g.failMember(spec, nodes)
	}
	if ok && viewOK && g.nodesViewComplete() {
		g.mu.Lock()
		g.reapedGroups[id] = true
		g.mu.Unlock()
	}
}

// nodesViewComplete reports whether Nodes() scans currently reflect every
// shard (an unreachable shard's rows are simply absent from fan-outs).
func (g *Global) nodesViewComplete() bool {
	if p, ok := g.cfg.Ctrl.(gcs.Pinger); ok {
		return p.Ping()
	}
	return true
}

// cacheGroup folds a state transition this scheduler just committed into
// the pass's group cache, so the retryParked that follows routes member
// tasks against the new truth instead of the pre-transition snapshot
// (which would re-park them, or worse, assign them to nodes the group
// just left).
func (g *Global) cacheGroup(id types.PlacementGroupID, state types.PlacementGroupState, bundleNodes []types.NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	info, ok := g.groupCache[id]
	if !ok {
		return
	}
	info.State = state
	info.BundleNodes = bundleNodes
	g.groupCache[id] = info
}

// shouldProbe rate-limits the Placed-group reservation repair probe.
func (g *Global) shouldProbe(id types.PlacementGroupID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if time.Since(g.probeAt[id]) < probeInterval {
		return false
	}
	g.probeAt[id] = time.Now()
	return true
}

// takeParkedMembers removes and returns parked tasks belonging to group.
func (g *Global) takeParkedMembers(group types.PlacementGroupID) []types.TaskSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []types.TaskSpec
	for id, spec := range g.parked {
		if spec.Group == group {
			out = append(out, spec)
			delete(g.parked, id)
		}
	}
	return out
}

// placeGrouped routes one member task: to the node holding its bundle when
// the group is Placed, to a terminal typed failure when the group is
// Removed, and back to the parked set otherwise (the gang pass re-drives
// parked tasks on every group transition). The group record comes from
// the last gang pass's scan when recent — one table scan serves a whole
// gang's parked members — with a direct lookup as the fallback; a ≤250 ms
// stale routing is harmless (a node whose reservation moved respills the
// task and it converges on the next pass).
func (g *Global) placeGrouped(spec types.TaskSpec) {
	g.mu.Lock()
	info, ok := g.groupCache[spec.Group]
	cacheFresh := time.Since(g.gangScanned) < gangScanInterval
	g.mu.Unlock()
	if !ok || !cacheFresh {
		info, ok = g.cfg.Ctrl.GetPlacementGroup(spec.Group)
	}
	if !ok {
		g.park(spec) // control-plane hiccup, or create still in flight
		return
	}
	switch info.State {
	case types.GroupRemoved:
		g.failMember(spec, nil)
	case types.GroupPlaced:
		node := info.NodeFor(spec.Bundle)
		if node.IsNil() {
			g.failMember(spec, nil) // bundle index beyond the placed set
			return
		}
		n, ok := g.cfg.Ctrl.GetNode(node)
		if !ok || !n.Schedulable() {
			g.park(spec) // member node died or is draining; rollback will re-place
			return
		}
		if err := g.cfg.Assign(node, n.Addr, spec); err != nil {
			g.park(spec)
			return
		}
		g.placed.Add(1)
		g.cfg.Ctrl.LogEvent(types.Event{Kind: "global-place", Task: spec.ID, Node: node, Detail: "gang:" + spec.Group.String()})
	default:
		g.park(spec)
	}
}

// failMember buries a member task through any live node (which has the
// object store needed to make the failure observable). nodes may carry a
// caller-shared alive-node snapshot so burying a whole gang's members
// costs one scan, not one per member; nil fetches a fresh one. With no
// live node the task parks; the next pass retries.
func (g *Global) failMember(spec types.TaskSpec, nodes []types.NodeInfo) {
	if g.cfg.FailTask == nil {
		g.park(spec)
		return
	}
	if nodes == nil {
		nodes = g.schedulableNodes()
	}
	reason := types.ReasonGroupRemoved + spec.Group.String()
	for _, n := range nodes {
		if err := g.cfg.FailTask(n.ID, n.Addr, spec, reason); err == nil {
			return
		}
	}
	g.park(spec)
}

// releaseEverywhere drops the group's reservations on every live node,
// reporting whether every release RPC succeeded. Releases are idempotent,
// so blanketing the cluster is simpler and safer than tracking exactly
// who holds what mid-rollback. Nodes whose release RPC failed are queued
// for targeted retry (retryFailedReleases): without it a transient RPC
// failure during a rollback would strand a bundle reservation — and the
// capacity it carves out — until the group is removed, since later passes
// only probe the group's *current* placement. holders names nodes KNOWN
// to hold reservations (the rolled-back placement); any holder hidden
// from the blanket — its node record unreadable during a shard failover,
// so no RPC was even attempted — is queued for retry too, since the
// blanket alone would silently skip it.
func (g *Global) releaseEverywhere(id types.PlacementGroupID, removed bool, holders []types.NodeID) bool {
	if g.cfg.ReleaseGroup == nil {
		return true
	}
	ok := true
	visible := make(map[types.NodeID]bool)
	for _, n := range g.aliveNodes() {
		visible[n.ID] = true
		if err := g.cfg.ReleaseGroup(n.ID, n.Addr, id, removed); err != nil {
			ok = false
			g.mu.Lock()
			g.releaseRetry[releaseKey{group: id, node: n.ID}] = removed
			g.mu.Unlock()
		}
	}
	for _, h := range holders {
		if visible[h] {
			continue
		}
		ok = false
		g.mu.Lock()
		g.releaseRetry[releaseKey{group: id, node: h}] = removed
		g.mu.Unlock()
	}
	return ok
}

// releaseKey identifies one failed reservation-release RPC to retry.
type releaseKey struct {
	group types.PlacementGroupID
	node  types.NodeID
}

// retryFailedReleases re-drives release RPCs that failed transiently.
// A dead target drops out (its reservations died with it); a node that
// meanwhile joined the group's new placement gets its reservation briefly
// released and re-carved by the next repair probe — converging, and far
// better than the permanent capacity leak.
func (g *Global) retryFailedReleases() {
	if g.cfg.ReleaseGroup == nil {
		return
	}
	g.mu.Lock()
	if len(g.releaseRetry) == 0 {
		g.mu.Unlock()
		return
	}
	pending := make(map[releaseKey]bool, len(g.releaseRetry))
	for k, removed := range g.releaseRetry {
		pending[k] = removed
	}
	g.mu.Unlock()
	for k, removed := range pending {
		done := false
		// A failed node-record read is NOT a death verdict: the shard
		// owning the record may be mid-failover while the node is alive
		// and still holding the reservation — keep the entry and retry.
		if n, ok := g.cfg.Ctrl.GetNode(k.node); ok && !n.Alive {
			done = true // confirmed dead: its reservations died with it
		} else if ok {
			if err := g.cfg.ReleaseGroup(k.node, n.Addr, k.group, removed); err == nil {
				done = true
			}
		}
		if done {
			g.mu.Lock()
			delete(g.releaseRetry, k)
			g.mu.Unlock()
		}
	}
}

func (g *Global) aliveNodes() []types.NodeInfo {
	nodes := g.cfg.Ctrl.Nodes()
	out := nodes[:0]
	for _, n := range nodes {
		if n.Alive {
			out = append(out, n)
		}
	}
	return out
}

// schedulableNodes excludes draining nodes too: new gang placements must
// not land on a node shedding its state. The release blanket keeps using
// aliveNodes — a draining node still holds reservations to release.
func (g *Global) schedulableNodes() []types.NodeInfo {
	nodes := g.cfg.Ctrl.Nodes()
	out := nodes[:0]
	for _, n := range nodes {
		if n.Schedulable() {
			out = append(out, n)
		}
	}
	return out
}

func addrIndex(nodes []types.NodeInfo) map[types.NodeID]string {
	out := make(map[types.NodeID]string, len(nodes))
	for _, n := range nodes {
		out[n.ID] = n.Addr
	}
	return out
}

// planBundles maps every bundle to a node, all-or-nothing, against the
// nodes' heartbeat availability (total capacity before the first
// heartbeat). nil means the group does not fit the cluster right now.
// STRICT_SPREAD assigns each bundle a distinct node; PACK fills already-
// chosen nodes first so the group lands on as few nodes as possible.
// Bundles are planned largest-first (better bin packing); the returned
// slice is indexed by bundle position.
func planBundles(spec types.PlacementGroupSpec, nodes []types.NodeInfo) []types.NodeID {
	type cand struct {
		id    types.NodeID
		avail types.Resources
		used  bool
	}
	cands := make([]*cand, 0, len(nodes))
	for _, n := range nodes {
		avail := n.Available
		if avail == nil {
			avail = n.Total
		}
		cands = append(cands, &cand{id: n.ID, avail: avail.Clone()})
	}

	order := make([]int, len(spec.Bundles))
	for i := range order {
		order[i] = i
	}
	weight := func(r types.Resources) float64 {
		w := 0.0
		for _, v := range r {
			w += v
		}
		return w
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight(spec.Bundles[order[a]].Resources) > weight(spec.Bundles[order[b]].Resources)
	})

	plan := make([]types.NodeID, len(spec.Bundles))
	for _, bi := range order {
		demand := spec.Bundles[bi].Resources
		var pick *cand
		for _, c := range cands {
			if spec.Strategy == types.StrategyStrictSpread && c.used {
				continue
			}
			if !demand.Fits(c.avail) {
				continue
			}
			switch spec.Strategy {
			case types.StrategyPack:
				// Prefer a node already in the plan; among fresh nodes,
				// the first fitting one.
				if pick == nil || (c.used && !pick.used) {
					pick = c
				}
			default: // STRICT_SPREAD: most headroom for balance
				if pick == nil || weight(c.avail) > weight(pick.avail) {
					pick = c
				}
			}
			if spec.Strategy == types.StrategyPack && pick != nil && pick.used {
				break
			}
		}
		if pick == nil {
			return nil // does not fit: place nothing
		}
		pick.avail.Sub(demand)
		pick.used = true
		plan[bi] = pick.id
	}
	return plan
}
