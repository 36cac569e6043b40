package kv

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Durability. Section 3.2.1's fault-tolerance argument assumes the control
// database itself is fault tolerant ("so long as the database is
// fault-tolerant, we can recover from component failures by simply
// restarting the failed components"). This file provides that property:
// a Store can write a point-in-time snapshot and be reconstituted from it,
// and a Logger tees every mutation to an append-only log so a crashed
// control plane replays to its last state. Pub/sub state is deliberately
// not persisted — subscribers are the stateless components, and on restart
// they resubscribe (that is the whole point of the architecture).

// snapshot is the gob-encoded durable state of one store. Token pairs a
// snapshot with the WAL incarnation that follows it (see Checkpoint): a
// WAL whose fence token differs from the snapshot's was superseded by the
// snapshot and must not be replayed on top of it.
type snapshot struct {
	Shards int
	Token  uint64
	KVs    map[string][]byte
	Lists  map[string][][]byte
}

// Snapshot writes a point-in-time copy of the store to w. It locks shards
// one at a time, so it is consistent per key but not across keys — the same
// guarantee a Redis BGSAVE gives, and sufficient because control-plane
// records are independently keyed.
func (s *Store) Snapshot(w io.Writer) error { return s.snapshotToken(w, 0) }

func (s *Store) snapshotToken(w io.Writer, token uint64) error {
	snap := snapshot{
		Shards: len(s.shards),
		Token:  token,
		KVs:    make(map[string][]byte),
		Lists:  make(map[string][][]byte),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, v := range sh.kvs {
			c := make([]byte, len(v))
			copy(c, v)
			snap.KVs[k] = c
		}
		for k, list := range sh.lists {
			cp := make([][]byte, len(list))
			for i, v := range list {
				c := make([]byte, len(v))
				copy(c, v)
				cp[i] = c
			}
			snap.Lists[k] = cp
		}
		sh.mu.Unlock()
	}
	return gob.NewEncoder(w).Encode(snap)
}

// SnapshotFile writes a snapshot atomically (write + rename).
func (s *Store) SnapshotFile(path string) error { return s.snapshotFileToken(path, 0) }

func (s *Store) snapshotFileToken(path string, token uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := s.snapshotToken(bw, token); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Restore reconstitutes a store from a snapshot.
func Restore(r io.Reader) (*Store, error) {
	s, _, err := restoreToken(r)
	return s, err
}

func restoreToken(r io.Reader) (*Store, uint64, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("kv: restore: %w", err)
	}
	s := New(snap.Shards)
	for k, v := range snap.KVs {
		s.Put(k, v)
	}
	for k, list := range snap.Lists {
		for _, v := range list {
			s.Append(k, v)
		}
	}
	return s, snap.Token, nil
}

// RestoreFile reads a snapshot file.
func RestoreFile(path string) (*Store, error) {
	s, _, err := restoreFileToken(path)
	return s, err
}

func restoreFileToken(path string) (*Store, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return restoreToken(bufio.NewReader(f))
}

// --- write-ahead log ---

// walOp tags log records.
type walOp uint8

const (
	walPut walOp = iota + 1
	walDelete
	walAppend
	// walFence is checkpoint metadata, not a mutation: the 8-byte value is
	// the token pairing this WAL with the snapshot written by the same
	// Checkpoint. Replay skips it; RecoverDir compares it.
	walFence
	// walAppendRing is a bounded append: the value is a 4-byte big-endian
	// keep count followed by the element.
	walAppendRing
)

// Logger wraps a Store, teeing every mutation to an append-only log.
// Reads and pub/sub pass through untouched. Replay applies a log to an
// empty (or snapshot-restored) store.
//
// Each mutation holds the log lock across both the log write and the store
// apply, so the pair is atomic with respect to WithLock — which is what
// lets a checkpoint (snapshot + log truncation) cut the log without losing
// a mutation that applied on one side of the cut and logged on the other.
// Mutations therefore serialize per Logger; the control plane regains
// parallelism by running many shard services, each with its own Logger.
type Logger struct {
	*Store
	w  io.Writer
	mu chan struct{} // binary semaphore: log write + store apply are atomic
	// failed latches on the first log-write error (ENOSPC, closed fd…):
	// from that point the WAL is missing acked-looking mutations, so the
	// service wrapping this logger must stop acknowledging (and restart
	// from the durable prefix) rather than confirm non-durable commits.
	failed atomic.Bool
	// appendNs, when set, observes the latency of each WAL append (the
	// durability cost every control-plane mutation pays).
	appendNs *metrics.Histogram
}

// Failed reports whether any log write has errored. A service serving
// this logger should treat true as "crash now": every mutation since the
// first failure is absent from the WAL.
func (l *Logger) Failed() bool { return l.failed.Load() }

// SetAppendHistogram attaches a latency histogram (nanoseconds) sampled on
// every WAL append. Call before the logger serves traffic; a nil histogram
// (the default) records nothing.
func (l *Logger) SetAppendHistogram(h *metrics.Histogram) { l.appendNs = h }

// NewLogger wraps store so mutations are logged to w. The caller is
// responsible for w's durability (e.g. an os.File with periodic Sync).
func NewLogger(store *Store, w io.Writer) *Logger {
	l := &Logger{Store: store, w: w, mu: make(chan struct{}, 1)}
	l.mu <- struct{}{}
	return l
}

// WithLock runs fn while mutation logging is excluded. Checkpointing uses
// it to snapshot the store and truncate (or swap) the log as one atomic
// step. fn must not call the Logger's own mutators.
func (l *Logger) WithLock(fn func(w io.Writer) error) error {
	<-l.mu
	defer func() { l.mu <- struct{}{} }()
	return fn(l.w)
}

// SetWriter atomically redirects future log records to w (log rotation
// after a checkpoint). Callers already holding WithLock must not use it.
func (l *Logger) SetWriter(w io.Writer) {
	<-l.mu
	l.w = w
	l.mu <- struct{}{}
}

// logLocked appends one record; caller holds l.mu. A write error latches
// the failed flag — torn tails are tolerated at Replay, but continuing to
// ack mutations a broken log never recorded would be silent state loss.
func (l *Logger) logLocked(op walOp, key string, value []byte) {
	if l.appendNs != nil {
		start := time.Now()
		defer func() { l.appendNs.Observe(time.Since(start).Nanoseconds()) }()
	}
	var hdr [9]byte
	hdr[0] = byte(op)
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(key)))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(value)))
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.failed.Store(true)
		return
	}
	if _, err := io.WriteString(l.w, key); err != nil {
		l.failed.Store(true)
		return
	}
	if _, err := l.w.Write(value); err != nil {
		l.failed.Store(true)
	}
}

// Put logs and applies atomically.
func (l *Logger) Put(key string, value []byte) {
	<-l.mu
	l.logLocked(walPut, key, value)
	l.Store.Put(key, value)
	l.mu <- struct{}{}
}

// Delete logs and applies atomically.
func (l *Logger) Delete(key string) bool {
	<-l.mu
	l.logLocked(walDelete, key, nil)
	ok := l.Store.Delete(key)
	l.mu <- struct{}{}
	return ok
}

// Append logs and applies atomically.
func (l *Logger) Append(key string, value []byte) {
	<-l.mu
	l.logLocked(walAppend, key, value)
	l.Store.Append(key, value)
	l.mu <- struct{}{}
}

// AppendRing logs and applies atomically.
func (l *Logger) AppendRing(key string, value []byte, keep int) {
	rec := make([]byte, 4+len(value))
	binary.BigEndian.PutUint32(rec, uint32(keep))
	copy(rec[4:], value)
	<-l.mu
	l.logLocked(walAppendRing, key, rec)
	l.Store.AppendRing(key, value, keep)
	l.mu <- struct{}{}
}

// Replay applies a mutation log to store. A truncated final record (torn
// write during a crash) ends replay without error; anything else malformed
// is reported.
func Replay(r io.Reader, store *Store) (records int, err error) {
	br := bufio.NewReader(r)
	for {
		var hdr [9]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return records, nil
			}
			return records, nil // torn header: stop at last good record
		}
		op := walOp(hdr[0])
		keyLen := binary.BigEndian.Uint32(hdr[1:5])
		valLen := binary.BigEndian.Uint32(hdr[5:9])
		if keyLen > 1<<20 || valLen > maxFrame {
			return records, fmt.Errorf("kv: corrupt wal record %d", records)
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(br, key); err != nil {
			return records, nil
		}
		val := make([]byte, valLen)
		if _, err := io.ReadFull(br, val); err != nil {
			return records, nil
		}
		switch op {
		case walPut:
			store.Put(string(key), val)
		case walDelete:
			store.Delete(string(key))
		case walAppend:
			store.Append(string(key), val)
		case walAppendRing:
			if len(val) < 4 {
				return records, fmt.Errorf("kv: corrupt bounded append at record %d", records)
			}
			store.AppendRing(string(key), val[4:], int(binary.BigEndian.Uint32(val)))
		case walFence:
			continue // checkpoint metadata, no state change, not counted
		default:
			return records, fmt.Errorf("kv: unknown wal op %d at record %d", op, records)
		}
		records++
	}
}

// maxFrame guards Replay against corrupt length prefixes.
const maxFrame = 256 << 20

// --- directory layout: one durable store per directory ---

// SnapshotName and WALName are the on-disk layout of one durable store
// (a GCS shard service keeps one directory per shard).
const (
	SnapshotName = "snapshot.gob"
	WALName      = "wal.log"
)

// RecoverDir reconstitutes a store from dir: the snapshot (if any) plus a
// replay of the write-ahead log's valid prefix (if any). A missing dir or
// empty dir yields a fresh store with the given shard count; a WAL torn
// mid-record by a crash replays up to the cut. The WAL is replayed only
// when its fence token matches the snapshot's: a mismatch means a crash
// landed inside Checkpoint after the new snapshot (which already contains
// every WAL mutation) but before the WAL was cut — replaying then would
// double-apply list appends. It returns the recovered store and how many
// WAL records were replayed on top of the snapshot.
func RecoverDir(dir string, shards int) (*Store, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("kv: recover dir: %w", err)
	}
	var store *Store
	snapToken := uint64(0)
	snapPath := filepath.Join(dir, SnapshotName)
	if _, err := os.Stat(snapPath); err == nil {
		store, snapToken, err = restoreFileToken(snapPath)
		if err != nil {
			return nil, 0, fmt.Errorf("kv: recover snapshot: %w", err)
		}
	} else {
		store = New(shards)
	}
	records := 0
	walPath := filepath.Join(dir, WALName)
	if f, err := os.Open(walPath); err == nil {
		walToken, fenced := readFence(f)
		// Replay when the fence pairs the WAL with this snapshot, or when
		// neither side is fenced (fresh dir: both zero).
		if (fenced && walToken == snapToken) || (!fenced && snapToken == 0) {
			records, err = Replay(f, store)
		} else {
			err = nil
		}
		f.Close()
		if err != nil {
			return nil, records, fmt.Errorf("kv: recover wal: %w", err)
		}
	}
	return store, records, nil
}

// readFence reads a WAL's leading fence record, leaving f positioned at
// the first record to replay. A WAL that does not start with a complete
// fence is left positioned at the start and reported unfenced.
func readFence(f *os.File) (uint64, bool) {
	var rec [17]byte // 9-byte header + 8-byte token
	if _, err := io.ReadFull(f, rec[:]); err == nil && walOp(rec[0]) == walFence &&
		binary.BigEndian.Uint32(rec[1:5]) == 0 && binary.BigEndian.Uint32(rec[5:9]) == 8 {
		return binary.BigEndian.Uint64(rec[9:17]), true
	}
	f.Seek(0, io.SeekStart)
	return 0, false
}

// OpenWALDir opens dir's write-ahead log for appending, creating it if
// absent. Pair with RecoverDir: recover first, then append new mutations.
func OpenWALDir(dir string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, WALName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Checkpoint writes a snapshot of the logger's store into dir and cuts
// the WAL, atomically with respect to concurrent mutations (the logger's
// lock covers both halves, so no mutation can land in the gap between the
// snapshot and the cut). Crash-safety comes from the shared token: the
// snapshot embeds it and the cut WAL starts with a matching fence, so a
// crash anywhere inside Checkpoint leaves either the old pairing (snapshot
// not yet renamed) or a mismatched one (RecoverDir then skips the stale
// WAL, whose every mutation the new snapshot already contains). If
// Checkpoint returns an error the WAL may be unfenced; restart the store
// from the directory rather than continuing to log to it.
func Checkpoint(l *Logger, dir string, wal *os.File) error {
	var tok [8]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return err
	}
	token := binary.BigEndian.Uint64(tok[:]) | 1 // non-zero: zero means unfenced
	return l.WithLock(func(io.Writer) error {
		if err := l.Store.snapshotFileToken(filepath.Join(dir, SnapshotName), token); err != nil {
			return err
		}
		if err := wal.Truncate(0); err != nil {
			return err
		}
		if _, err := wal.Seek(0, io.SeekStart); err != nil {
			return err
		}
		var fence [17]byte
		fence[0] = byte(walFence)
		binary.BigEndian.PutUint32(fence[5:9], 8)
		binary.BigEndian.PutUint64(fence[9:17], token)
		_, err := wal.Write(fence[:])
		return err
	})
}
