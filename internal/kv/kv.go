// Package kv implements the control-plane database of the paper's Section
// 3.2.1: a sharded in-memory key-value store providing (1) storage for
// system control state and (2) publish-subscribe so that stateless system
// components can communicate. The paper's prototype used Redis; this is a
// from-scratch substitute exposing exactly the operations the architecture
// needs — exact-match get/put, list append, and channels — sharded by key
// hash so throughput scales with shard count (experiment E7).
package kv

import (
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is a sharded key-value store with pub/sub. All methods are safe for
// concurrent use. Keys route to shards by FNV-1a hash, so a key's shard is
// stable for the life of the store.
type Store struct {
	shards []*shard
	ops    atomic.Int64 // total mutating+reading operations, for benchmarks
}

type shard struct {
	mu sync.Mutex
	// kvs holds scalar values; lists holds append-only lists. They share a
	// namespace split by the caller's key conventions.
	kvs   map[string][]byte
	lists map[string][][]byte
	subs  map[string][]*Subscription // channel name -> subscribers
	// buckets indexes scalar keys by their table prefix (everything up to
	// and including the first ':'), so Keys("node:") walks the node table
	// instead of the whole keyspace. Without it every prefix scan was
	// O(total keys) — and the node-table scan sits on the global
	// scheduler's per-placement path, which made placement cost grow with
	// the number of tasks ever recorded.
	buckets map[string]map[string]struct{}
}

// bucketOf returns the prefix bucket a key belongs to: the segment up to
// and including the first ':' (the table-naming convention every
// control-plane key follows), or "" for unsegmented keys.
func bucketOf(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		return key[:i+1]
	}
	return ""
}

// index adds key to its prefix bucket. Caller holds sh.mu.
func (sh *shard) index(key string) {
	b := bucketOf(key)
	m := sh.buckets[b]
	if m == nil {
		m = make(map[string]struct{})
		sh.buckets[b] = m
	}
	m[key] = struct{}{}
}

// unindex removes key from its prefix bucket. Caller holds sh.mu.
func (sh *shard) unindex(key string) {
	if m := sh.buckets[bucketOf(key)]; m != nil {
		delete(m, key)
	}
}

// New creates a store with n shards (n < 1 is treated as 1).
func New(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{
			kvs:     make(map[string][]byte),
			lists:   make(map[string][][]byte),
			subs:    make(map[string][]*Subscription),
			buckets: make(map[string]map[string]struct{}),
		}
	}
	return s
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Ops returns the cumulative operation count (monotonic; for benchmarks).
func (s *Store) Ops() int64 { return s.ops.Load() }

func (s *Store) shardFor(key string) *shard { return s.shards[s.ShardIndex(key)] }

// ShardIndex is the shard key routes to: FNV-1a of the key, modulo the
// shard count.
func (s *Store) ShardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Get returns the value stored at key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.ops.Add(1)
	sh := s.shardFor(key)
	sh.mu.Lock()
	v, ok := sh.kvs[key]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Put stores value at key, replacing any previous value.
func (s *Store) Put(key string, value []byte) {
	s.ops.Add(1)
	v := make([]byte, len(value))
	copy(v, value)
	sh := s.shardFor(key)
	sh.mu.Lock()
	if _, ok := sh.kvs[key]; !ok {
		sh.index(key)
	}
	sh.kvs[key] = v
	sh.mu.Unlock()
}

// Delete removes key; reports whether it existed.
func (s *Store) Delete(key string) bool {
	s.ops.Add(1)
	sh := s.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.kvs[key]
	if ok {
		delete(sh.kvs, key)
		sh.unindex(key)
	}
	sh.mu.Unlock()
	return ok
}

// Append appends value to the list at key (creating it if needed).
func (s *Store) Append(key string, value []byte) {
	s.ops.Add(1)
	v := make([]byte, len(value))
	copy(v, value)
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.lists[key] = append(sh.lists[key], v)
	sh.mu.Unlock()
}

// AppendRing appends value to the list at key and drops its oldest entries
// beyond keep, so the list holds the newest keep values in order.
func (s *Store) AppendRing(key string, value []byte, keep int) {
	s.ops.Add(1)
	v := make([]byte, len(value))
	copy(v, value)
	sh := s.shardFor(key)
	sh.mu.Lock()
	list := append(sh.lists[key], v)
	if over := len(list) - keep; over > 0 {
		// The dropped head stays reachable until append next outgrows the
		// array and copies the live tail: at most keep entries more.
		list = list[over:]
	}
	sh.lists[key] = list
	sh.mu.Unlock()
}

// List returns a copy of the list at key.
func (s *Store) List(key string) [][]byte {
	s.ops.Add(1)
	sh := s.shardFor(key)
	sh.mu.Lock()
	src := sh.lists[key]
	out := make([][]byte, len(src))
	for i, v := range src {
		c := make([]byte, len(v))
		copy(c, v)
		out[i] = c
	}
	sh.mu.Unlock()
	return out
}

// ListLen returns the length of the list at key without copying.
func (s *Store) ListLen(key string) int {
	s.ops.Add(1)
	sh := s.shardFor(key)
	sh.mu.Lock()
	n := len(sh.lists[key])
	sh.mu.Unlock()
	return n
}

// Keys returns every scalar key with the given prefix, across all shards.
// A prefix naming a table (containing ':') walks only that table's bucket
// — O(matches), which is what lets scans like the node table sit on the
// scheduler's placement path. Prefixes shorter than a full table segment
// fall back to the whole-keyspace scan.
func (s *Store) Keys(prefix string) []string {
	bucket := bucketOf(prefix)
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		if bucket != "" {
			for k := range sh.buckets[bucket] {
				if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
					out = append(out, k)
				}
			}
		} else {
			for k := range sh.kvs {
				if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
					out = append(out, k)
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// ListKeys returns every list key with the given prefix, across all shards.
func (s *Store) ListKeys(prefix string) []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k := range sh.lists {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				out = append(out, k)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
