package gcs

import (
	"hash/fnv"

	"repro/internal/types"
)

// The control plane can run as a set of independently-failing shard
// services instead of one process (the sharded GCS of the paper's Section
// 3.2.1: "we can shard the database for scalability, as long as we accept
// a slight loss in the semantics"). Each shard owns a partition of the
// keyspace with its own write-ahead log and snapshot; clients route every
// keyed operation through a versioned ShardMap fetched at connect time and
// refreshed whenever a shard stops answering or answers as the wrong
// shard (the redirect case: an address that changed hands between map
// versions).

// ShardInfo describes one control-plane shard service.
type ShardInfo struct {
	// Index is the shard's position in the map; routing hashes into it.
	Index int
	// Addr is the transport address the shard's service listens on.
	Addr string
	// Incarnation counts restarts; it distinguishes a recovered shard from
	// the crashed instance a subscriber was attached to.
	Incarnation int64
	// Alive is the supervisor's view of the shard process.
	Alive bool
}

// ShardMap is the versioned routing table for a sharded control plane.
// The shard count is fixed for the life of the cluster (keys must hash
// stably); restarts bump Version and the dead shard's Incarnation, never
// the geometry.
type ShardMap struct {
	Version int64
	Shards  []ShardInfo
}

// ShardForKey routes a control-plane key (e.g. "task:<hex>") to a shard
// index by FNV-1a hash — the same stable-hash scheme the kv store uses for
// its in-process sub-shards.
func (m ShardMap) ShardForKey(key string) int {
	if len(m.Shards) == 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(m.Shards)))
}

// NumShards returns the shard count.
func (m ShardMap) NumShards() int { return len(m.Shards) }

// Routing keys. Every table record and its derived pub/sub channels route
// by the record key, so a publish always happens on the shard that owns
// the record being mutated — which is what lets per-ID subscriptions
// attach to exactly one shard.

// TaskKey is the routing (and storage) key of a task record.
func TaskKey(id types.TaskID) string { return keyTask + id.Hex() }

// ObjectKey is the routing (and storage) key of an object record.
func ObjectKey(id types.ObjectID) string { return keyObject + id.Hex() }

// NodeKey is the routing (and storage) key of a node record.
func NodeKey(id types.NodeID) string { return keyNode + id.Hex() }

// GroupKey is the routing (and storage) key of a placement-group record.
func GroupKey(id types.PlacementGroupID) string { return keyGroup + id.Hex() }

// JobKey is the routing (and storage) key of a job record.
func JobKey(id types.JobID) string { return keyJob + id.Hex() }

// EventKey is the routing (and storage) key of a node's event list.
func EventKey(node types.NodeID) string { return keyEvents + node.Hex() }

// Wire methods for the shard-map service (served by the supervisor) and
// per-shard identity checks (served by every shard service).
const (
	// MethodShardMap returns the current ShardMap. The supervisor serves
	// it at the cluster's control-plane address; clients fetch at connect
	// and refresh on failure or redirect.
	MethodShardMap = "gcs.shardMap"
	// MethodShardInfo is served by each shard service and returns its own
	// ShardInfo. Clients verify it after dialing: answering with an
	// unexpected Index is the redirect signal that the client's map is
	// stale.
	MethodShardInfo = "gcs.shard.info"
)
