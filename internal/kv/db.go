package kv

import "io"

// DB is the store surface the control-plane table layer (internal/gcs)
// builds on. Both *Store and *Logger satisfy it, so a gcs.Store can run
// over a bare in-memory store (in-process clusters, benchmarks) or over a
// write-ahead-logged store (durable GCS shard services) without knowing
// the difference.
type DB interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
	Delete(key string) bool
	AppendRing(key string, value []byte, keep int)
	List(key string) [][]byte
	Keys(prefix string) []string
	ListKeys(prefix string) []string

	Publish(channel string, payload []byte)
	Subscribe(channel string) *Subscription
	NumSubscribers(channel string) int

	Snapshot(w io.Writer) error
	NumShards() int
	Ops() int64
}

var (
	_ DB = (*Store)(nil)
	_ DB = (*Logger)(nil)
)
