package gcs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// ShardedConfig configures a Sharded control-plane client.
type ShardedConfig struct {
	// Network dials shard services and the map service.
	Network transport.Network
	// MapAddr is where the control plane (a supervisor, or an in-memory
	// head's RegisterSingleShard service) serves MethodShardMap.
	MapAddr string
	// RetryWindow bounds how long a keyed call retries against a dead or
	// restarting shard before giving up (returning the zero value: a dead
	// control plane reads like an empty one and components keep polling).
	// Default 3s — generously above a supervised restart, far below a
	// human-visible hang.
	RetryWindow time.Duration
	// Metrics, when set, records per-method/per-shard RPC latency
	// histograms ("gcs.rpc.ns;method=...;shard=N") and failed-attempt
	// counters ("gcs.rpc.errors;..."). Nil disables instrumentation.
	Metrics *metrics.Registry
}

// Sharded is the one transport client of the control plane: it implements
// API over a set of independently-failing shard services — N supervised
// durable shards, or the single in-memory service of RegisterSingleShard,
// which is the same protocol with a static one-entry map. Every keyed
// operation routes through a versioned shard map fetched at connect time;
// when a shard stops answering — or answers as the wrong shard, the
// redirect signal of a stale map — the client refreshes the map and
// retries against the shard's new incarnation.
// Fan-out reads (Tasks, Objects, Nodes, Events…) merge per-shard partial
// scans and degrade gracefully: a dead shard's rows are simply absent
// until it recovers. Subscriptions transparently resubscribe to restarted
// shards, so long-lived consumers (the lifetime GC loop, the global
// scheduler's spill feed) survive control-plane failover without ever
// seeing their channel close.
type Sharded struct {
	cfg ShardedConfig

	mu          sync.Mutex
	smap        ShardMap
	conns       map[int]transport.Client
	mapConn     transport.Client
	lastRefresh time.Time
	subs        map[*resilientSub]struct{}
	closed      chan struct{}
	closeOnce   sync.Once

	rpcm sync.Map // rpcKey -> *metrics.Histogram (rpcLatency)
}

// NewSharded connects to the shard-map service and fetches the initial
// map. The map fetch must succeed — a client that cannot learn the
// cluster geometry cannot route anything.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Network == nil || cfg.MapAddr == "" {
		return nil, fmt.Errorf("gcs: sharded client needs Network and MapAddr")
	}
	if cfg.RetryWindow <= 0 {
		cfg.RetryWindow = 3 * time.Second
	}
	s := &Sharded{
		cfg:    cfg,
		conns:  make(map[int]transport.Client),
		subs:   make(map[*resilientSub]struct{}),
		closed: make(chan struct{}),
	}
	if err := s.refreshMap(true); err != nil {
		return nil, err
	}
	return s, nil
}

// SetMetrics attaches an RPC-latency registry after construction (the
// node wires its own registry into the client it was handed). Call before
// the client sees concurrent traffic; nil detaches.
func (s *Sharded) SetMetrics(reg *metrics.Registry) {
	s.cfg.Metrics = reg
	s.rpcm.Clear()
}

// Map returns the client's current view of the shard map.
func (s *Sharded) Map() ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.smap
}

// Close releases every connection and terminates resubscription loops.
// Subscriptions obtained from this client close their channels.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.mu.Lock()
	subs := make([]*resilientSub, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = make(map[int]transport.Client)
	if s.mapConn != nil {
		s.mapConn.Close()
		s.mapConn = nil
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// refreshMap re-fetches the shard map. Refreshes are rate-limited so a
// burst of failing calls does not hammer the map service; force bypasses
// the limit (initial connect).
func (s *Sharded) refreshMap(force bool) error {
	s.mu.Lock()
	if !force && time.Since(s.lastRefresh) < 2*time.Millisecond {
		s.mu.Unlock()
		return nil
	}
	s.lastRefresh = time.Now()
	conn := s.mapConn
	s.mu.Unlock()

	if conn == nil {
		var err error
		conn, err = s.cfg.Network.Dial(s.cfg.MapAddr)
		if err != nil {
			return fmt.Errorf("gcs: dial shard map %s: %w", s.cfg.MapAddr, err)
		}
	}
	resp, err := conn.Call(MethodShardMap, nil)
	if err != nil {
		conn.Close()
		s.mu.Lock()
		if s.mapConn == conn {
			s.mapConn = nil
		}
		s.mu.Unlock()
		return fmt.Errorf("gcs: fetch shard map: %w", err)
	}
	m, err := codec.DecodeAs[ShardMap](resp)
	if err != nil {
		conn.Close()
		s.mu.Lock()
		if s.mapConn == conn {
			s.mapConn = nil
		}
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	closed := false
	select {
	case <-s.closed:
		closed = true
	default:
	}
	if closed || (s.mapConn != nil && s.mapConn != conn) {
		// Raced Close, or another refresh dialed concurrently.
		conn.Close()
	} else {
		s.mapConn = conn
	}
	if m.Version >= s.smap.Version {
		s.smap = m
	}
	s.mu.Unlock()
	return nil
}

// conn returns a verified connection to shard idx, dialing if needed. The
// post-dial identity check is the redirect path: a server answering with a
// different index means the client's map is stale.
func (s *Sharded) conn(idx int) (transport.Client, error) {
	s.mu.Lock()
	if c, ok := s.conns[idx]; ok {
		s.mu.Unlock()
		return c, nil
	}
	var addr string
	if idx < len(s.smap.Shards) {
		addr = s.smap.Shards[idx].Addr
	}
	s.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("gcs: no shard %d in map", idx)
	}
	c, err := s.cfg.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(MethodShardInfo, nil)
	if err != nil {
		c.Close()
		return nil, err
	}
	info, err := codec.DecodeAs[ShardInfo](resp)
	if err != nil || info.Index != idx {
		c.Close()
		s.refreshMap(false) // redirect: address no longer serves this shard
		return nil, fmt.Errorf("gcs: shard %d redirected (got %d)", idx, info.Index)
	}
	s.mu.Lock()
	select {
	case <-s.closed:
		// Raced Close: nothing will ever close a late-cached connection.
		s.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("gcs: sharded client closed")
	default:
	}
	if prev, ok := s.conns[idx]; ok {
		s.mu.Unlock()
		c.Close()
		return prev, nil
	}
	s.conns[idx] = c
	s.mu.Unlock()
	return c, nil
}

// dropConn discards a connection observed failing (if still cached).
func (s *Sharded) dropConn(idx int, c transport.Client) {
	s.mu.Lock()
	if cur, ok := s.conns[idx]; ok && cur == c {
		delete(s.conns, idx)
	}
	s.mu.Unlock()
	c.Close()
}

// rpcKey names one (method, shard) pair of RPC instruments.
type rpcKey struct {
	method string
	shard  int
}

func (k rpcKey) name(family string) string {
	return fmt.Sprintf("%s;method=%s;shard=%d", family, k.method, k.shard)
}

// rpcLatency returns the pair's latency histogram (nil, which is disabled
// but safe, without a registry), cached so the hot path formats no names.
func (s *Sharded) rpcLatency(k rpcKey) *metrics.Histogram {
	if s.cfg.Metrics == nil {
		return nil
	}
	if h, ok := s.rpcm.Load(k); ok {
		return h.(*metrics.Histogram)
	}
	h := s.cfg.Metrics.Histogram(k.name("gcs.rpc.ns"))
	s.rpcm.Store(k, h)
	return h
}

// attempt sends one unary RPC to shard idx. Every control-plane call —
// keyed or fan-out — leaves the client here, so each is timed and each
// failure counted exactly once under the same method/shard labels. A
// failed attempt drops the connection and refreshes the map, so the
// caller's next attempt re-routes to the shard's new incarnation.
func (s *Sharded) attempt(idx int, method string, payload []byte) ([]byte, error) {
	k := rpcKey{method, idx}
	c, err := s.conn(idx)
	if err == nil {
		start := time.Now()
		var resp []byte
		resp, err = c.Call(method, payload)
		s.rpcLatency(k).Observe(time.Since(start).Nanoseconds())
		if err == nil {
			return resp, nil
		}
		s.dropConn(idx, c)
	}
	s.cfg.Metrics.Counter(k.name("gcs.rpc.errors")).Inc()
	s.refreshMap(false)
	return nil, err
}

// shardCall performs one keyed call of m with failover: failed attempts
// are retried, re-resolving the key against the refreshed map each time,
// until RetryWindow elapses. ok=false after exhaustion.
func shardCall[Req, Resp any](s *Sharded, m rpc[Req, Resp], key string, req Req) (Resp, bool) {
	var zero Resp
	payload, err := codec.Encode(req)
	if err != nil {
		return zero, false
	}
	deadline := time.Now().Add(s.cfg.RetryWindow)
	backoff := time.Millisecond
	for {
		if resp, err := s.attempt(s.Map().ShardForKey(key), m.name, payload); err == nil {
			out, decErr := codec.DecodeAs[Resp](resp)
			return out, decErr == nil
		}
		if time.Now().After(deadline) {
			return zero, false
		}
		select {
		case <-s.closed:
			return zero, false
		case <-time.After(backoff):
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// scanShard is one shard's slice of a fan-out read: two quick attempts,
// then give up so a dead shard degrades the view instead of stalling it.
func scanShard[Req, Resp any](s *Sharded, idx int, m rpc[Req, Resp], req Req) (Resp, bool) {
	var zero Resp
	payload, err := codec.Encode(req)
	if err != nil {
		return zero, false
	}
	for range 2 {
		if resp, err := s.attempt(idx, m.name, payload); err == nil {
			out, decErr := codec.DecodeAs[Resp](resp)
			return out, decErr == nil
		}
	}
	return zero, false
}

// scanAll is the one fan-out: it asks every shard and returns the answers
// of those that replied, plus whether all did. Records are spread over
// every shard, so a shard that stays unreachable makes the view incomplete
// — callers that must not conclude from a partial scan (owner-death
// transfer, job reclaim, the dead-node ref sweep) retry on false.
func scanAll[Req, Resp any](s *Sharded, m rpc[Req, Resp], req Req) (parts []Resp, complete bool) {
	complete = true
	for idx := range s.Map().NumShards() {
		if part, ok := scanShard(s, idx, m, req); ok {
			parts = append(parts, part)
		} else {
			complete = false
		}
	}
	return parts, complete
}

// fanOut merges one list scan across every shard, degrading gracefully: a
// dead shard's rows are absent until it recovers.
func fanOut[Req, R any](s *Sharded, m rpc[Req, []R], req Req) ([]R, bool) {
	parts, complete := scanAll(s, m, req)
	return slices.Concat(parts...), complete
}

// partition is the one batch fan-out: items are grouped by the shard
// owning key(item), each group is delivered as one keyed call of m — round
// trips proportional to the shards touched, not the items — with groups in
// flight concurrently, and the leftovers are collected: left(resp) for a
// delivered group (nil left: nothing), the whole group for one whose shard
// stayed unreachable past the retry window, so the caller requeues or
// retries exactly those. A group is routed by any member: shardCall
// re-resolves the key each retry, so a failover re-routes the batch to the
// new incarnation.
func partition[T, Req, Resp any](s *Sharded, m rpc[Req, Resp], items []T, key func(T) string, req func([]T) Req, left func(Resp) []T) []T {
	if len(items) == 0 {
		return nil
	}
	sm := s.Map()
	parts := make(map[int][]T)
	for _, it := range items {
		idx := sm.ShardForKey(key(it))
		parts[idx] = append(parts[idx], it)
	}
	var (
		mu   sync.Mutex
		rest []T
		wg   sync.WaitGroup
	)
	for _, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, ok := shardCall(s, m, key(part[0]), req(part))
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				rest = append(rest, part...)
			} else if left != nil {
				rest = append(rest, left(resp)...)
			}
		}()
	}
	wg.Wait()
	return rest
}

// subMap returns m restricted to keys.
func subMap[K comparable, V any](m map[K]V, keys []K) map[K]V {
	out := make(map[K]V, len(keys))
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

// --- API: clock and liveness ---

// NowNs implements API: the first healthy shard's clock. Shards stamp
// their durable epochs together at first boot, so any shard's clock
// agrees with the others to within boot skew — and each stays monotonic
// across its own restarts.
func (s *Sharded) NowNs() int64 {
	for idx := 0; idx < s.Map().NumShards(); idx++ {
		if v, ok := scanShard(s, idx, rpcNow, none{}); ok {
			return v
		}
	}
	return 0
}

// Ping implements Pinger: true only when every shard answers. A single
// dead shard makes reads unreliable (its records look absent), so callers
// distinguishing missing-record from unreachable need the conjunction.
func (s *Sharded) Ping() bool {
	parts, complete := scanAll(s, rpcNow, none{})
	return complete && len(parts) > 0
}

// --- API: task table ---

// GetTask implements API.
func (s *Sharded) GetTask(id types.TaskID) (types.TaskState, bool) {
	v, ok := shardCall(s, rpcGetTask, TaskKey(id), id)
	return v.Val, ok && v.OK
}

// ClaimTask implements API. A claim is not response-idempotent (the retry
// would lose to its own commit), so each logical claim carries a token held
// fixed across retries, which the shard's durable MutOps ring reports as
// won; the returned sequence is the base the new owner's ledger deltas must
// exceed.
func (s *Sharded) ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool) {
	v, ok := shardCall(s, rpcClaimTask, TaskKey(id),
		claimTaskReq{ID: id, From: from, To: to, Owner: owner, Op: newOpToken()})
	return v.Seq, ok && v.OK
}

// ModifyTaskStates implements API: one owner-ledger flush, partitioned by
// the shard owning each task record. Every partition carries the caller's
// token (dedup is recorded per task), and a shard unreachable past the
// retry window contributes its whole partition to the failed set so the
// owner requeues those deltas under the same token.
//
// The births' object-side step follows: their return objects' producer
// edges and their arguments' pins, partitioned by the objects' shards, the
// pins aggregated per object under the batch's token. The token makes a
// redelivery's pins a no-op where they landed, so they go only once every
// birth of the batch holds its record or was refused as another
// submission's: were a birth whose shard failed to share an object with
// one that landed, the first delivery would spend the token on the object
// without the failed birth's pin, and its redelivery would be a dedup hit.
// Otherwise no object-side step is sent and every birth of the batch is
// reported with the failed, its redelivery finding its own record. An
// object shard that fails reports every birth that pins or ensures an
// object on it. A birth refused as another's pins and ensures nothing.
func (s *Sharded) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	var refused []types.TaskID
	rest := partition(s, rpcModifyTaskStates, deltas,
		func(d types.TaskStateDelta) string { return TaskKey(d.ID) },
		func(part []types.TaskStateDelta) types.TaskLedgerBatch {
			return types.TaskLedgerBatch{Node: node, Deltas: part, Op: op}
		}, func(r taskIDsReq) []types.TaskStateDelta {
			refused = append(refused, r.IDs...) // partition calls this under its lock
			return nil
		})
	failed := refused
	for _, d := range rest {
		failed = append(failed, d.ID)
	}
	var (
		edges map[types.ObjectID]types.TaskID
		pins  map[types.ObjectID]int64
		born  []*types.TaskSpec
	)
	for i := range deltas {
		spec := deltas[i].Spec
		switch {
		case spec == nil || slices.Contains(refused, spec.ID):
		case len(rest) > 0:
			if !slices.Contains(failed, spec.ID) {
				failed = append(failed, spec.ID)
			}
		default:
			if edges == nil {
				edges = make(map[types.ObjectID]types.TaskID)
			}
			for r := 0; r < spec.NumReturns; r++ {
				edges[spec.ReturnID(r)] = spec.ID
			}
			pins = birthPins(pins, spec)
			born = append(born, spec)
		}
	}
	down := append(s.EnsureObjects(edges), s.pinObjects(pins, op)...)
	for _, spec := range born {
		touches := func(id types.ObjectID) bool {
			return edges[id] == spec.ID || slices.ContainsFunc(spec.Args, func(a types.Arg) bool { return a.IsRef && a.Ref == id })
		}
		if slices.ContainsFunc(down, touches) {
			failed = append(failed, spec.ID)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return failed
}

// ScanTasks implements API: each shard filters, the merge restores submit
// order. On an incomplete view the owner-death transfer and the reclaim
// pass retry rather than act on a partial set.
func (s *Sharded) ScanTasks(f TaskFilter) ([]types.TaskState, bool) {
	out, complete := fanOut(s, rpcTasks, f)
	sortBySubmit(out)
	return out, complete
}

// --- API: object table ---

// EnsureObjects implements API: one batch of edges, partitioned by the
// shard owning each object record. Ensure is naturally idempotent (heal
// a missing producer), so partitions carry no token; a shard unreachable
// past the retry window contributes its partition to the failed set.
func (s *Sharded) EnsureObjects(producers map[types.ObjectID]types.TaskID) []types.ObjectID {
	return partition(s, rpcEnsureObjects, slices.Collect(maps.Keys(producers)), ObjectKey,
		func(part []types.ObjectID) ensureObjectsReq {
			return ensureObjectsReq{Producers: subMap(producers, part)}
		}, nil)
}

// AddObjectLocation implements API.
func (s *Sharded) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	shardCall(s, rpcAddObjLocation, ObjectKey(id), objLocationReq{ID: id, Node: node, Size: size})
}

// RemoveObjectLocation implements API.
func (s *Sharded) RemoveObjectLocation(id types.ObjectID, node types.NodeID) {
	shardCall(s, rpcRemoveObjLocation, ObjectKey(id), objLocationReq{ID: id, Node: node})
}

// GetObject implements API.
func (s *Sharded) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	v, ok := shardCall(s, rpcGetObject, ObjectKey(id), id)
	return v.Val, ok && v.OK
}

// Objects implements API.
func (s *Sharded) Objects() []types.ObjectInfo {
	out, _ := fanOut(s, rpcObjects, none{})
	return out
}

// WatchObjects implements API: one call per shard owning some of ids. A
// shard that does not answer leaves its objects unwatched, and they read as
// having no record; the watcher looks again.
func (s *Sharded) WatchObjects(node types.NodeID, ids []types.ObjectID) []ObjectWatch {
	return byShard(s, ids, ObjectKey, func(idx int, part []types.ObjectID) ([]ObjectWatch, bool) {
		return scanShard(s, idx, rpcWatchObjects, watchObjectsReq{Node: node, IDs: part})
	}, ObjectWatch{})
}

// ModifyObjectRefCounts implements API: one ledger flush, partitioned by
// owning shard. Every partition carries the caller's token (dedup is
// recorded per object, so slices of one batch cannot confuse each other).
// A shard unreachable past the retry window contributes its whole
// partition to the failed set; the caller requeues those deltas under the
// same token, which is what makes the eventual redelivery safe against a
// crash that committed the partition but lost the ack.
func (s *Sharded) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	return partition(s, rpcModifyObjRefs, slices.Collect(maps.Keys(deltas)), ObjectKey,
		func(part []types.ObjectID) modifyRefsReq {
			return modifyRefsReq{Node: node, Deltas: subMap(deltas, part), Op: op}
		}, nil)
}

// SweepDeadNodeRefs implements API. An incomplete pass is reported
// negative — "retry later" — and the caller (the global scheduler's death
// sweep) keeps the node on its sweep list; the sweep is idempotent so the
// overlap is free.
func (s *Sharded) SweepDeadNodeRefs(node types.NodeID) int {
	parts, complete := scanAll(s, rpcSweepDeadRefs, node)
	if !complete {
		return -1
	}
	total := 0
	for _, n := range parts {
		total += n
	}
	return total
}

// newOpToken returns a random non-zero idempotency token.
func newOpToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 1 // degraded but non-zero; collisions only dedup spuriously
	}
	return binary.BigEndian.Uint64(b[:]) | 1
}

// MarkObjectSpilled implements API.
func (s *Sharded) MarkObjectSpilled(id types.ObjectID, node types.NodeID, spilled bool) {
	shardCall(s, rpcMarkObjSpilled, ObjectKey(id), markSpilledReq{ID: id, Node: node, Spilled: spilled})
}

// --- API: placement-group table ---

// CreatePlacementGroup implements API. Create is naturally idempotent
// (insert-if-absent keyed by group ID), so a retry across a shard crash
// needs no token; the retry's false return leaves the original record.
func (s *Sharded) CreatePlacementGroup(spec types.PlacementGroupSpec) bool {
	v, _ := shardCall(s, rpcCreateGroup, GroupKey(spec.ID), spec)
	return v
}

// GetPlacementGroup implements API.
func (s *Sharded) GetPlacementGroup(id types.PlacementGroupID) (types.PlacementGroupInfo, bool) {
	v, ok := shardCall(s, rpcGetGroup, GroupKey(id), id)
	return v.Val, ok && v.OK
}

// PlacementGroups implements API.
func (s *Sharded) PlacementGroups() []types.PlacementGroupInfo {
	out, _ := fanOut(s, rpcGroups, none{})
	return out
}

// CASPlacementGroupState implements API. Like every other state CAS, a
// gang claim is not response-idempotent (the retry would lose to its own
// commit, stranding the group in Placing), so each logical CAS carries a
// token held fixed across retries; the shard's durable MutOps ring reports
// the duplicate as won.
func (s *Sharded) CASPlacementGroupState(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64) bool {
	v, _ := shardCall(s, rpcCASGroup, GroupKey(id),
		casGroupReq{ID: id, From: from, To: to, Nodes: bundleNodes, Claim: claim, Op: newOpToken()})
	return v
}

// --- API: job table ---

// CreateJob implements API. Create is naturally idempotent
// (insert-if-absent keyed by job ID), so a retry across a shard crash
// needs no token; the retry's false return leaves the original record.
func (s *Sharded) CreateJob(spec types.JobSpec) bool {
	v, _ := shardCall(s, rpcCreateJob, JobKey(spec.ID), spec)
	return v
}

// GetJob implements API.
func (s *Sharded) GetJob(id types.JobID) (types.JobInfo, bool) {
	v, ok := shardCall(s, rpcGetJob, JobKey(id), id)
	return v.Val, ok && v.OK
}

// Jobs implements API: merged scan, creation-ordered.
func (s *Sharded) Jobs() []types.JobInfo {
	out, _ := fanOut(s, rpcJobs, none{})
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedNs < out[j].CreatedNs })
	return out
}

// CASJobState implements API. Like every other state CAS, a job-state
// transition is not response-idempotent (the retry would lose to its own
// commit and a StopJob would report failure after succeeding), so each
// logical CAS carries a token held fixed across retries; the shard's
// durable MutOps ring reports the duplicate as won.
func (s *Sharded) CASJobState(id types.JobID, from []types.JobState, to types.JobState) bool {
	v, _ := shardCall(s, rpcCASJob, JobKey(id), casJobReq{ID: id, From: from, To: to, Op: newOpToken()})
	return v
}

// ForceReleaseObjects implements API: partitioned by the shard owning
// each object record. Force release is idempotent (counts clamp to zero),
// so partitions carry no token; a shard unreachable past the retry window
// contributes its partition to the failed set and the reclaim pass
// retries it.
func (s *Sharded) ForceReleaseObjects(ids []types.ObjectID) []types.ObjectID {
	return partition(s, rpcForceReleaseObjects, ids, ObjectKey, objectIDs, nil)
}

// PurgeObjects is retire's object removal, partitioned like
// ForceReleaseObjects. A shard reports back the subset of its partition
// still undrained; an unreachable shard's whole partition is reported
// remaining so the caller retries it.
func (s *Sharded) PurgeObjects(ids []types.ObjectID) []types.ObjectID {
	return partition(s, rpcPurgeObjects, ids, ObjectKey, objectIDs,
		func(resp objectIDsReq) []types.ObjectID { return resp.IDs })
}

func objectIDs(ids []types.ObjectID) objectIDsReq { return objectIDsReq{IDs: ids} }

// PurgeTasks implements API: partitioned by the shard owning each task
// record, then the removed records' pins dropped, partitioned by the
// objects' shards under one token. A delete cannot be told from its own
// retry, so a partition whose ack died with its shard reports nothing
// removed the second time and the pins those records held stay; so does an
// unpin whose object shard stays unreachable — the leak-safe direction:
// the argument's record outlives its use, which is how every record lived
// before.
func (s *Sharded) PurgeTasks(ids []types.TaskID) (args []types.ObjectID, left []types.TaskID) {
	left = partition(s, rpcPurgeTasks, ids, TaskKey,
		func(part []types.TaskID) taskIDsReq { return taskIDsReq{IDs: part} },
		func(resp purgeTasksResp) []types.TaskID {
			args = append(args, resp.Args...) // partition calls this under its lock
			return resp.Left
		})
	s.pinObjects(unpinning(args), newOpToken())
	return args, left
}

// pinObjects is Store.pinObjects partitioned like ModifyObjectRefCounts,
// every partition under the caller's token. It returns the objects whose
// shard stayed unreachable.
func (s *Sharded) pinObjects(deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	return partition(s, rpcPinObjects, slices.Collect(maps.Keys(deltas)), ObjectKey,
		func(part []types.ObjectID) pinObjectsReq { return pinObjectsReq{Deltas: subMap(deltas, part), Op: op} }, nil)
}

// Retire implements API: the policy of retire.go, its reads and removals as
// keyed calls.
func (s *Sharded) Retire(objects []types.ObjectID) Retired { return retire(s, objects) }

// byShard is a batched read of records: ids grouped by owning shard, one
// ask per shard, the answers in ids' order. A shard gets the two quick
// attempts of scanShard where other keyed calls ride out the retry window —
// the caller holds a batch, and a dead shard must cost it one short wait —
// and its records then read as down.
func byShard[K ~[types.IDSize]byte, F any](s *Sharded, ids []K, key func(K) string, ask func(idx int, part []K) ([]F, bool), down F) []F {
	out := make([]F, len(ids))
	m := s.Map()
	byShard := make(map[int][]int)
	for i, id := range ids {
		idx := m.ShardForKey(key(id))
		byShard[idx] = append(byShard[idx], i)
	}
	var wg sync.WaitGroup
	for idx, at := range byShard {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := make([]K, len(at))
			for j, i := range at {
				part[j] = ids[i]
			}
			got, ok := ask(idx, part)
			for j, i := range at {
				if ok && j < len(got) {
					out[i] = got[j]
				} else {
					out[i] = down
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// objectFacts and taskFacts are retire's batched reads.
func (s *Sharded) objectFacts(ids []types.ObjectID) []objectFacts {
	return byShard(s, ids, ObjectKey, func(idx int, part []types.ObjectID) ([]objectFacts, bool) {
		resp, ok := scanShard(s, idx, rpcRecordFacts, recordFactsReq{Objects: part})
		return resp.Objects, ok
	}, objectFacts{Look: unreachable})
}

func (s *Sharded) taskFacts(ids []types.TaskID) []taskFacts {
	return byShard(s, ids, TaskKey, func(idx int, part []types.TaskID) ([]taskFacts, bool) {
		resp, ok := scanShard(s, idx, rpcRecordFacts, recordFactsReq{Tasks: part})
		return resp.Tasks, ok
	}, taskFacts{Look: unreachable})
}

// --- API: spillover ---

// PublishSpill implements API. The publish lands on the shard owning the
// task record; the fast path is pub/sub, and the global scheduler's
// pending-task sweep is the durable fallback for a publish dropped by a
// shard crash.
func (s *Sharded) PublishSpill(spec types.TaskSpec) {
	shardCall(s, rpcPublishSpill, TaskKey(spec.ID), spec)
}

// --- API: node table ---

// RegisterNode implements API.
func (s *Sharded) RegisterNode(info types.NodeInfo) {
	shardCall(s, rpcRegisterNode, NodeKey(info.ID), info)
}

// Heartbeat implements API.
func (s *Sharded) Heartbeat(id types.NodeID, queueLen int, avail types.Resources, store types.StoreStats) {
	shardCall(s, rpcHeartbeat, NodeKey(id), heartbeatReq{ID: id, Queue: queueLen, Avail: avail, Store: store})
}

// MarkNodeDead implements API.
func (s *Sharded) MarkNodeDead(id types.NodeID) {
	shardCall(s, rpcMarkNodeDead, NodeKey(id), id)
}

// CASNodeState implements API: tokenized like every other state CAS, so a
// drain decision retried across a shard crash never loses to its own
// earlier commit.
func (s *Sharded) CASNodeState(id types.NodeID, from []types.NodeState, to types.NodeState) bool {
	v, _ := shardCall(s, rpcCASNodeState, NodeKey(id), casNodeReq{ID: id, From: from, To: to, Op: newOpToken()})
	return v
}

// GetNode implements API.
func (s *Sharded) GetNode(id types.NodeID) (types.NodeInfo, bool) {
	v, ok := shardCall(s, rpcGetNode, NodeKey(id), id)
	return v.Val, ok && v.OK
}

// Nodes implements API.
func (s *Sharded) Nodes() []types.NodeInfo {
	out, _ := fanOut(s, rpcNodes, none{})
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Hex() < out[j].ID.Hex() })
	return out
}

// --- API: event log ---

// LogEvent implements API.
func (s *Sharded) LogEvent(ev types.Event) {
	shardCall(s, rpcLogEvent, EventKey(ev.Node), ev)
}

// Events implements API: merged, time-ordered (shards share one epoch).
func (s *Sharded) Events() []types.Event {
	out, _ := fanOut(s, rpcEvents, none{})
	sort.Slice(out, func(i, j int) bool { return out[i].TimeNs < out[j].TimeNs })
	return out
}

// PublishTelemetry implements TelemetrySink: the snapshot and spans land
// on the shard owning the node record, so the per-node state and its
// telemetry fail (and recover) together.
func (s *Sharded) PublishTelemetry(id types.NodeID, snap metrics.Snapshot, spans []metrics.SpanRecord) {
	shardCall(s, rpcPublishTelemetry, NodeKey(id), publishTelemetryReq{ID: id, Snap: snap, Spans: spans})
}

// Telemetry implements TelemetrySink: merged across shards.
func (s *Sharded) Telemetry() []TelemetrySnapshot {
	out, _ := fanOut(s, rpcTelemetry, none{})
	sort.Slice(out, func(i, j int) bool { return out[i].Node.String() < out[j].Node.String() })
	return out
}

// Spans implements TelemetrySink: merged across shards, time-ordered, their
// IDs in hex (each shard formats what it returns).
func (s *Sharded) Spans() []metrics.SpanRecord {
	out, _ := fanOut(s, rpcSpans, none{})
	sort.Slice(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// --- resilient subscriptions ---

// Subscribe implements API: every topic merges every shard's feed (each
// record's transitions publish on the shard that owns it).
func (s *Sharded) Subscribe(topic Topic, id [types.IDSize]byte) Sub {
	var shards []int
	for i := range s.Map().NumShards() {
		shards = append(shards, i)
	}
	return s.newResilientSub(subPayload(topic, id), shards)
}

// resilientSub keeps one logical subscription alive across shard crashes:
// per shard, a loop (re)dials, (re)opens the stream, and forwards
// messages; a stream collapse triggers a map refresh and reattachment to
// the shard's next incarnation. The out channel only closes on Close, so
// consumers never mistake a control-plane restart for end-of-stream.
type resilientSub struct {
	s    *Sharded
	out  chan []byte
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// newResilientSub attaches to the given shards and blocks until each
// currently-reachable shard has acked the subscription — preserving the
// no-missed-publish-after-return guarantee for live shards. A dead shard
// cannot publish, so it is attached optimistically by its loop instead of
// blocking the caller.
func (s *Sharded) newResilientSub(payload []byte, shards []int) Sub {
	r := &resilientSub{
		s:    s,
		out:  make(chan []byte, 64),
		stop: make(chan struct{}),
	}
	var firstAttach sync.WaitGroup
	for _, idx := range shards {
		r.wg.Add(1)
		firstAttach.Add(1)
		go r.run(idx, payload, &firstAttach)
	}
	go func() {
		r.wg.Wait()
		close(r.out)
	}()
	firstAttach.Wait()
	s.mu.Lock()
	if s.subs != nil {
		s.subs[r] = struct{}{}
	}
	s.mu.Unlock()
	return r
}

func (r *resilientSub) run(idx int, payload []byte, firstAttach *sync.WaitGroup) {
	defer r.wg.Done()
	attachOnce := sync.OnceFunc(firstAttach.Done)
	defer attachOnce()
	backoff := time.Millisecond
	attempts := 0
	for {
		select {
		case <-r.stop:
			return
		case <-r.s.closed:
			return
		default:
		}
		stream := r.attach(idx, payload)
		if stream != nil {
			attachOnce()
			backoff = time.Millisecond
			r.forward(stream)
			stream.Close()
		} else {
			attempts++
			if attempts >= 2 {
				// The shard is down, not flapping: release the constructor
				// (a dead shard has nothing to publish) and keep retrying
				// in the background until it comes back.
				attachOnce()
			}
		}
		r.s.refreshMap(false)
		select {
		case <-r.stop:
			return
		case <-r.s.closed:
			return
		case <-time.After(backoff):
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// attach opens the stream and waits for the service's established ack.
func (r *resilientSub) attach(idx int, payload []byte) transport.Stream {
	c, err := r.s.conn(idx)
	if err != nil {
		return nil
	}
	stream, err := c.OpenStream(StreamSub, payload)
	if err != nil {
		r.s.dropConn(idx, c)
		return nil
	}
	if _, err := stream.Recv(); err != nil {
		stream.Close()
		r.s.dropConn(idx, c)
		return nil
	}
	return stream
}

// forward pumps stream messages to out until the stream dies. A watcher
// closes the stream on Close so a Recv parked on a quiet subscription
// cannot outlive the subscription.
func (r *resilientSub) forward(stream transport.Stream) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.stop:
			stream.Close()
		case <-r.s.closed:
			stream.Close()
		case <-done:
		}
	}()
	for {
		msg, err := stream.Recv()
		if err != nil {
			return
		}
		select {
		case r.out <- msg:
		case <-r.stop:
			return
		case <-r.s.closed:
			return
		}
	}
}

// C implements Sub.
func (r *resilientSub) C() <-chan []byte { return r.out }

// Close implements Sub.
func (r *resilientSub) Close() {
	r.once.Do(func() {
		close(r.stop)
		r.s.mu.Lock()
		delete(r.s.subs, r)
		r.s.mu.Unlock()
	})
}

var _ API = (*Sharded)(nil)
var _ Pinger = (*Sharded)(nil)
