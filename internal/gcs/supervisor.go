package gcs

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// SupervisorConfig configures a control-plane supervisor.
type SupervisorConfig struct {
	// Shards is how many shard services to run (>= 1). Fixed for the life
	// of the data directory: keys hash into it.
	Shards int
	// Network binds the shard services and the map service.
	Network transport.Network
	// MapAddr is where the supervisor serves the shard map.
	MapAddr string
	// ShardAddrs lists each shard's service address. Optional: when empty,
	// addresses derive as MapAddr-shard-<i> (in-process networks).
	ShardAddrs []string
	// DataDir holds one subdirectory per shard (shard-<i>) with that
	// shard's snapshot and WAL. Required.
	DataDir string
	// SubShards is each shard's internal kv lock-striping count.
	SubShards int
	// AutoRestart, when positive, is the supervision interval: a loop
	// restarts dead shards this often. Zero means manual RestartShard only.
	AutoRestart time.Duration
	// CheckpointWALBytes, when positive, bounds each shard's WAL: the
	// supervision loop checkpoints (snapshot + WAL truncate) any live shard
	// whose log has grown past this many bytes, so recovery replay time
	// stays proportional to the threshold rather than to uptime. Zero
	// disables size-triggered checkpoints (manual CheckpointAll only).
	CheckpointWALBytes int64
	// DisableEventLog turns off control-plane event logging.
	DisableEventLog bool
	// Metrics, when set, is threaded to every shard for WAL append
	// latency histograms. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// Supervisor runs the sharded control plane: it boots every shard service,
// serves the versioned shard map, and — the failover half of Section
// 3.2.1 — restarts dead shards from their snapshot + WAL so the control
// plane as a whole survives any single shard's crash.
type Supervisor struct {
	cfg SupervisorConfig

	mu       sync.Mutex
	shards   []*ShardService
	version  int64
	listener io.Closer

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewSupervisor boots the shard services and the map service. Booting over
// a pre-existing DataDir recovers every shard from disk and then runs the
// cross-shard liveness reset (the sharded ResetAfterRecovery): nodes of
// the previous incarnation are marked dead and their object locations
// dropped, so sole copies transition to Lost and lineage replay can
// regenerate them. On a fresh DataDir the reset is a no-op.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("gcs: supervisor needs at least 1 shard")
	}
	if cfg.Network == nil || cfg.MapAddr == "" || cfg.DataDir == "" {
		return nil, fmt.Errorf("gcs: supervisor needs Network, MapAddr, and DataDir")
	}
	if len(cfg.ShardAddrs) == 0 {
		cfg.ShardAddrs = make([]string, cfg.Shards)
		for i := range cfg.ShardAddrs {
			cfg.ShardAddrs[i] = fmt.Sprintf("%s-shard-%d", cfg.MapAddr, i)
		}
	}
	if len(cfg.ShardAddrs) != cfg.Shards {
		return nil, fmt.Errorf("gcs: %d shard addrs for %d shards", len(cfg.ShardAddrs), cfg.Shards)
	}

	s := &Supervisor{cfg: cfg, version: 1, stop: make(chan struct{})}
	for i := 0; i < cfg.Shards; i++ {
		svc, err := StartShard(ShardConfig{
			Index:           i,
			Addr:            cfg.ShardAddrs[i],
			Network:         cfg.Network,
			DataDir:         filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%d", i)),
			SubShards:       cfg.SubShards,
			DisableEventLog: cfg.DisableEventLog,
			Metrics:         cfg.Metrics,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, svc)
	}
	var stores []*Store
	for _, svc := range s.shards {
		stores = append(stores, svc.Store())
	}
	resetAfterRecovery(stores...)

	srv := transport.NewServer()
	handle0(srv, MethodShardMap, s.Map)
	l, err := cfg.Network.Listen(cfg.MapAddr, srv)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("gcs: serve shard map: %w", err)
	}
	s.listener = l

	interval := cfg.AutoRestart
	if interval <= 0 && cfg.CheckpointWALBytes > 0 {
		// Size-triggered checkpoints without auto-restart still need the
		// supervision tick; WAL growth tolerates a coarse check.
		interval = 50 * time.Millisecond
	}
	if interval > 0 {
		s.wg.Add(1)
		go s.superviseLoop(interval)
	}
	return s, nil
}

// Map snapshots the current shard map.
func (s *Supervisor) Map() ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := ShardMap{Version: s.version, Shards: make([]ShardInfo, len(s.shards))}
	for i, svc := range s.shards {
		m.Shards[i] = ShardInfo{
			Index:       i,
			Addr:        svc.Addr(),
			Incarnation: svc.Incarnation(),
			Alive:       svc.Alive(),
		}
	}
	return m
}

// NumShards returns the shard count.
func (s *Supervisor) NumShards() int { return s.cfg.Shards }

// Shard exposes shard i's service (tests, tools).
func (s *Supervisor) Shard(i int) *ShardService { return s.shards[i] }

// KillShard crash-fails shard i and bumps the map version.
func (s *Supervisor) KillShard(i int) {
	s.shards[i].Kill()
	s.bumpVersion()
}

// RestartShard recovers shard i from snapshot + WAL as a new incarnation.
func (s *Supervisor) RestartShard(i int) error {
	if err := s.shards[i].Restart(); err != nil {
		return err
	}
	s.bumpVersion()
	return nil
}

// CheckpointAll snapshots every live shard and truncates its WAL.
func (s *Supervisor) CheckpointAll() error {
	for _, svc := range s.shards {
		if !svc.Alive() {
			continue
		}
		if err := svc.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns every shard's health row (dashboard /api/shards).
func (s *Supervisor) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, svc := range s.shards {
		out[i] = svc.Stats()
	}
	return out
}

// Records returns how many task and object records the live shards hold.
func (s *Supervisor) Records() (tasks, objects int64) {
	for _, svc := range s.shards {
		if st := svc.Store(); st != nil {
			t, o := st.Records()
			tasks, objects = tasks+t, objects+o
		}
	}
	return tasks, objects
}

// Close stops supervision and every shard (durable state stays on disk).
func (s *Supervisor) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.listener != nil {
		s.listener.Close()
	}
	for _, svc := range s.shards {
		svc.Close()
	}
}

func (s *Supervisor) bumpVersion() {
	s.mu.Lock()
	s.version++
	s.mu.Unlock()
}

// superviseLoop restarts dead shards every tick — the "restart the failed
// component" loop the paper's fault-tolerance story assumes exists around
// the database — and bounds each live shard's WAL when a checkpoint
// threshold is configured.
func (s *Supervisor) superviseLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			for i, svc := range s.shards {
				if !svc.Alive() {
					if s.cfg.AutoRestart <= 0 {
						continue // checkpoint-only supervision: restarts stay manual
					}
					if err := s.RestartShard(i); err == nil {
						if st := svc.Store(); st != nil {
							st.LogEvent(types.Event{Kind: "shard-restarted", Detail: fmt.Sprintf("shard %d incarnation %d", i, svc.Incarnation())})
						}
					}
				}
			}
			s.checkpointOversized()
		case <-s.stop:
			return
		}
	}
}

// checkpointOversized snapshots any live shard whose WAL grew past the
// configured byte threshold. Best-effort: a failed checkpoint already
// crash-restarts the shard on its own (see ShardService.Checkpoint), and
// the next tick retries whatever is still oversized.
func (s *Supervisor) checkpointOversized() {
	if s.cfg.CheckpointWALBytes <= 0 {
		return
	}
	for _, svc := range s.shards {
		if !svc.Alive() || svc.Stats().WALBytes < s.cfg.CheckpointWALBytes {
			continue
		}
		if err := svc.Checkpoint(); err == nil {
			if st := svc.Store(); st != nil {
				st.LogEvent(types.Event{Kind: "shard-checkpoint",
					Detail: fmt.Sprintf("shard %d WAL over %d bytes", svc.cfg.Index, s.cfg.CheckpointWALBytes)})
			}
		}
	}
}
