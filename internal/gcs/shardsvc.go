package gcs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// ErrShardDown is what a killed shard service answers until it is
// restarted. Clients holding live connections to a crashed shard see this
// (or a transport error) and fall back to the shard map.
var ErrShardDown = errors.New("gcs: shard down")

// ShardConfig describes one control-plane shard service.
type ShardConfig struct {
	// Index is this shard's slot in the cluster's ShardMap.
	Index int
	// Addr is the transport address to serve on.
	Addr string
	// Network binds the service (Inproc in tests, TCP in deployments).
	Network transport.Network
	// DataDir holds the shard's snapshot and write-ahead log. Required:
	// a shard without durable state cannot survive its own crash.
	DataDir string
	// SubShards is the in-memory kv store's internal shard count
	// (lock-striping, not the cluster-level sharding). Default 4.
	SubShards int
	// DisableEventLog turns off control-plane event logging.
	DisableEventLog bool
	// Metrics, when set, records the shard's WAL append latency
	// ("gcs.wal.append.ns;shard=N"). Nil disables instrumentation.
	Metrics *metrics.Registry
}

// ShardStats is one shard's health row (dashboard /api/shards, rayctl).
type ShardStats struct {
	Index       int    `json:"index"`
	Addr        string `json:"addr"`
	Alive       bool   `json:"alive"`
	Incarnation int64  `json:"incarnation"`
	Restarts    int64  `json:"restarts"`
	Ops         int64  `json:"kv_ops"`
	WALBytes    int64  `json:"wal_bytes"`
	Replayed    int    `json:"replayed_records"`
}

// ShardService runs one control-plane shard: a gcs.Store over a
// write-ahead-logged kv store, served on its own transport address. Kill
// simulates a crash (the service stops answering mid-everything); Restart
// recovers the shard from snapshot + WAL replay as a new incarnation.
type ShardService struct {
	cfg ShardConfig

	mu          sync.Mutex
	store       *Store
	logger      *kv.Logger
	wal         *os.File
	listener    io.Closer
	gate        *shardGate
	alive       bool
	incarnation int64
	restarts    int64
	replayed    int // WAL records replayed at the last recovery
}

// StartShard boots a shard service, recovering any state already in its
// data directory (snapshot, then the WAL's valid prefix — a tail torn by a
// crash mid-append is discarded). Boot checkpoints immediately: the
// recovered state becomes the new snapshot and the WAL restarts empty, so
// recovery cost is bounded by one incarnation's mutations.
func StartShard(cfg ShardConfig) (*ShardService, error) {
	if cfg.Network == nil || cfg.Addr == "" {
		return nil, fmt.Errorf("gcs: shard %d: Network and Addr are required", cfg.Index)
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("gcs: shard %d: DataDir is required (shards are durable)", cfg.Index)
	}
	if cfg.SubShards <= 0 {
		cfg.SubShards = 4
	}
	s := &ShardService{cfg: cfg}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// start boots one incarnation. Caller holds s.mu or owns s exclusively.
func (s *ShardService) start() error {
	db, replayed, err := kv.RecoverDir(s.cfg.DataDir, s.cfg.SubShards)
	if err != nil {
		return fmt.Errorf("gcs: shard %d recover: %w", s.cfg.Index, err)
	}
	wal, err := kv.OpenWALDir(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("gcs: shard %d wal: %w", s.cfg.Index, err)
	}
	logger := kv.NewLogger(db, wal)
	if s.cfg.Metrics != nil {
		logger.SetAppendHistogram(s.cfg.Metrics.Histogram(fmt.Sprintf("gcs.wal.append.ns;shard=%d", s.cfg.Index)))
	}
	// Checkpoint at boot: persist the recovered state as the snapshot and
	// cut the WAL (discarding any torn tail for good).
	if err := kv.Checkpoint(logger, s.cfg.DataDir, wal); err != nil {
		wal.Close()
		return fmt.Errorf("gcs: shard %d checkpoint: %w", s.cfg.Index, err)
	}
	store := RecoverStore(logger)
	store.SetEventLogging(!s.cfg.DisableEventLog)
	// Record and marker writes are separate WAL records; a crash (or torn
	// WAL tail) can strand one side. Recovery reconciles them so the
	// rescue sweeps and GC replay can trust the indexes.
	store.RebuildIndexes()

	gate := newShardGate()
	srv := transport.NewServer()
	reg := gatedRegistrar{
		srv:  srv,
		gate: gate,
		// A WAL write failure means acks would confirm non-durable
		// commits; poison the service and crash it so it restarts from
		// the durable prefix (clients retry with their op tokens).
		poisoned: logger.Failed,
		onPoison: func() { go s.Kill() },
	}
	RegisterService(reg, store)
	incarnation := s.incarnation + 1
	handle0(reg, MethodShardInfo, func() ShardInfo {
		return ShardInfo{
			Index:       s.cfg.Index,
			Addr:        s.cfg.Addr,
			Incarnation: incarnation,
			Alive:       true,
		}
	})
	listener, err := s.cfg.Network.Listen(s.cfg.Addr, srv)
	if err != nil {
		wal.Close()
		return fmt.Errorf("gcs: shard %d listen: %w", s.cfg.Index, err)
	}

	s.store, s.logger, s.wal = store, logger, wal
	s.gate, s.listener = gate, listener
	s.alive = true
	s.incarnation = incarnation
	s.replayed = replayed
	return nil
}

// Index returns the shard's map slot.
func (s *ShardService) Index() int { return s.cfg.Index }

// Addr returns the shard's service address.
func (s *ShardService) Addr() string { return s.cfg.Addr }

// Alive reports whether the shard is currently serving.
func (s *ShardService) Alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alive
}

// Incarnation returns the current (or last) incarnation number.
func (s *ShardService) Incarnation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incarnation
}

// Store exposes the shard's table layer while alive (nil when killed).
// Supervisor-level recovery and tests use it; clients go through the map.
func (s *ShardService) Store() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alive {
		return nil
	}
	return s.store
}

// Kill simulates the shard process dying: every open subscription stream
// collapses, in-flight and future calls fail with ErrShardDown, and the
// in-memory state is abandoned. Durable state (snapshot + WAL) survives
// for Restart, exactly like a SIGKILL'd process's files.
func (s *ShardService) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.killLocked()
}

// killLocked is Kill's body; caller holds s.mu.
func (s *ShardService) killLocked() {
	if !s.alive {
		return
	}
	s.alive = false
	s.gate.kill()
	if s.listener != nil {
		s.listener.Close()
	}
	// Quiesce before closing the WAL fd: SetWriter waits out any in-flight
	// atomic log+apply (its writes reached the file and the gate's
	// post-commit check decides their acks), and redirecting stragglers to
	// Discard means a goroutine still holding the old fd can never write
	// into the file after the next incarnation has truncated and re-fenced
	// it. A mutation diverted to Discard is never acked — the gate was
	// already killed — so nothing non-durable is ever confirmed.
	s.logger.SetWriter(io.Discard)
	s.wal.Close()
	s.store, s.logger, s.wal = nil, nil, nil
}

// Restart recovers a killed shard from its snapshot + WAL as a fresh
// incarnation on the same address. Restarting a live shard is a no-op.
func (s *ShardService) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.alive {
		return nil
	}
	if err := s.start(); err != nil {
		return err
	}
	s.restarts++
	return nil
}

// Checkpoint snapshots the shard's current state and truncates its WAL,
// atomically with respect to concurrent mutations. A failed checkpoint
// may leave the WAL unfenced relative to the new snapshot — continuing to
// log to it would make the next recovery silently discard every later
// mutation — so on error the shard crash-restarts from disk immediately
// (bounded loss: suppressed acks are retried by clients) instead of
// serving on a poisoned log.
func (s *ShardService) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alive {
		return ErrShardDown
	}
	err := kv.Checkpoint(s.logger, s.cfg.DataDir, s.wal)
	if err == nil {
		return nil
	}
	s.killLocked()
	if rerr := s.start(); rerr != nil {
		return fmt.Errorf("gcs: shard %d checkpoint failed (%v) and restart failed: %w", s.cfg.Index, err, rerr)
	}
	s.restarts++
	return fmt.Errorf("gcs: shard %d checkpoint failed (recovered by restart): %w", s.cfg.Index, err)
}

// Close shuts the shard down for good (graceful: state stays on disk).
func (s *ShardService) Close() { s.Kill() }

// Stats snapshots the shard's health row.
func (s *ShardService) Stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStats{
		Index:       s.cfg.Index,
		Addr:        s.cfg.Addr,
		Alive:       s.alive,
		Incarnation: s.incarnation,
		Restarts:    s.restarts,
		Replayed:    s.replayed,
	}
	if s.alive {
		st.Ops = s.store.Ops()
	}
	if fi, err := os.Stat(filepath.Join(s.cfg.DataDir, kv.WALName)); err == nil {
		st.WALBytes = fi.Size()
	}
	return st
}

// --- kill gate ---

// shardGate lets a "crashed" shard stop answering even for clients that
// hold live connections (the in-process network dispatches straight into
// the server object, so closing the listener alone is not enough).
type shardGate struct {
	once sync.Once
	dead chan struct{}
}

func newShardGate() *shardGate { return &shardGate{dead: make(chan struct{})} }

func (g *shardGate) kill() { g.once.Do(func() { close(g.dead) }) }

func (g *shardGate) killed() bool {
	select {
	case <-g.dead:
		return true
	default:
		return false
	}
}

// gatedRegistrar wraps every handler with the gate check; streams get a
// wrapped ServerStream whose Done also fires on kill, so long-lived
// subscription forwarders exit promptly when the shard "crashes".
type gatedRegistrar struct {
	srv  *transport.Server
	gate *shardGate
	// poisoned reports that the WAL can no longer record mutations (disk
	// failure); acks must stop and onPoison crash-restarts the shard.
	poisoned func() bool
	onPoison func()
}

func (r gatedRegistrar) down() bool {
	if r.gate.killed() {
		return true
	}
	if r.poisoned != nil && r.poisoned() {
		if r.onPoison != nil {
			r.onPoison()
		}
		return true
	}
	return false
}

func (r gatedRegistrar) Handle(method string, h transport.Handler) {
	r.srv.Handle(method, func(payload []byte) ([]byte, error) {
		if r.down() {
			return nil, ErrShardDown
		}
		out, err := h(payload)
		// Post-commit check: a kill (or WAL failure) that raced this
		// handler may mean its log write never hit disk, so never ack
		// across it — a suppressed ack makes the client retry (refcount
		// deltas and CAS claims dedup via their op tokens; everything
		// else is idempotent), whereas an ack for a non-durable commit
		// would be state loss.
		if r.down() {
			return nil, ErrShardDown
		}
		return out, err
	})
}

func (r gatedRegistrar) HandleStream(method string, h transport.StreamHandler) {
	g := r.gate
	r.srv.HandleStream(method, func(payload []byte, stream transport.ServerStream) error {
		if g.killed() {
			return ErrShardDown
		}
		return h(payload, newGatedStream(stream, g))
	})
}

type gatedStream struct {
	inner transport.ServerStream
	gate  *shardGate
	done  chan struct{}
}

func newGatedStream(inner transport.ServerStream, gate *shardGate) *gatedStream {
	gs := &gatedStream{inner: inner, gate: gate, done: make(chan struct{})}
	go func() {
		select {
		case <-inner.Done():
		case <-gate.dead:
		}
		close(gs.done)
	}()
	return gs
}

// Send implements transport.ServerStream.
func (s *gatedStream) Send(payload []byte) error {
	if s.gate.killed() {
		return transport.ErrClosed
	}
	return s.inner.Send(payload)
}

// Done implements transport.ServerStream.
func (s *gatedStream) Done() <-chan struct{} { return s.done }
