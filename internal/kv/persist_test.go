package kv

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(4)
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Append("list", []byte("x"))
	s.Append("list", []byte("y"))

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 {
		t.Fatalf("shards = %d", r.NumShards())
	}
	v, ok := r.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	list := r.List("list")
	if len(list) != 2 || string(list[0]) != "x" || string(list[1]) != "y" {
		t.Fatalf("list = %v", list)
	}
}

func TestSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")
	s := New(2)
	s.Put("k", []byte("v"))
	if err := s.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get("k"); string(v) != "v" {
		t.Fatal("file round trip lost data")
	}
	if _, err := RestoreFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restored")
	}
}

func TestWALReplayReproducesState(t *testing.T) {
	var wal bytes.Buffer
	l := NewLogger(New(4), &wal)
	l.Put("a", []byte("1"))
	l.Put("a", []byte("2")) // overwrite
	l.Put("b", []byte("3"))
	l.Delete("b")
	l.Append("events", []byte("e1"))
	l.Append("events", []byte("e2"))

	replayed := New(4)
	n, err := Replay(bytes.NewReader(wal.Bytes()), replayed)
	if err != nil {
		t.Fatal(err)
	}
	// Logged: put a, put a, put b, del b, append x2 = 6 records.
	if n != 6 {
		t.Fatalf("replayed %d records, want 6", n)
	}
	if v, _ := replayed.Get("a"); string(v) != "2" {
		t.Fatalf("a = %q", v)
	}
	if _, ok := replayed.Get("b"); ok {
		t.Fatal("deleted key resurrected")
	}
	if got := replayed.List("events"); len(got) != 2 || string(got[1]) != "e2" {
		t.Fatalf("events = %v", got)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	var wal bytes.Buffer
	l := NewLogger(New(1), &wal)
	l.Put("a", []byte("1"))
	l.Put("b", []byte("2"))
	full := wal.Bytes()
	// Cut the log mid-record (simulate a crash during the last write).
	torn := full[:len(full)-3]
	replayed := New(1)
	n, err := Replay(bytes.NewReader(torn), replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records from torn log, want 1", n)
	}
	if v, _ := replayed.Get("a"); string(v) != "1" {
		t.Fatal("good prefix lost")
	}
}

// TestWALTruncatedEveryPrefix is the exhaustive torn-tail property: for a
// WAL cut at EVERY byte boundary — mid-header, mid-key, mid-value, and on
// record boundaries — replay must recover exactly the longest whole-record
// prefix and never report an error. This is the crash-during-append
// contract a restarting GCS shard depends on.
func TestWALTruncatedEveryPrefix(t *testing.T) {
	var wal bytes.Buffer
	var bounds []int // wal length after each whole record
	l := NewLogger(New(2), &wal)
	l.Put("alpha", []byte("one"))
	bounds = append(bounds, wal.Len())
	l.Append("list", []byte("element-two"))
	bounds = append(bounds, wal.Len())
	l.Put("beta", []byte("three"))
	bounds = append(bounds, wal.Len())
	l.Delete("alpha")
	bounds = append(bounds, wal.Len())
	full := wal.Bytes()

	wholeRecords := func(cut int) int {
		n := 0
		for _, b := range bounds {
			if cut >= b {
				n++
			}
		}
		return n
	}
	for cut := 0; cut <= len(full); cut++ {
		replayed := New(2)
		n, err := Replay(bytes.NewReader(full[:cut]), replayed)
		if err != nil {
			t.Fatalf("cut at %d: replay errored: %v", cut, err)
		}
		if want := wholeRecords(cut); n != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, n, want)
		}
		// Spot-check state at the record boundaries.
		switch n {
		case 1:
			if v, _ := replayed.Get("alpha"); string(v) != "one" {
				t.Fatalf("cut at %d: alpha = %q", cut, v)
			}
		case 4:
			if _, ok := replayed.Get("alpha"); ok {
				t.Fatalf("cut at %d: deleted key survived", cut)
			}
			if v, _ := replayed.Get("beta"); string(v) != "three" {
				t.Fatalf("cut at %d: beta = %q", cut, v)
			}
		}
	}
}

// TestWALTornTailThenContinue: recovery from a torn log must leave a store
// that keeps working — the restarted shard appends new mutations and a
// second recovery sees both the salvaged prefix and the new writes.
func TestWALTornTailThenContinue(t *testing.T) {
	var wal bytes.Buffer
	l := NewLogger(New(1), &wal)
	l.Put("a", []byte("1"))
	l.Put("b", []byte("2"))
	torn := append([]byte(nil), wal.Bytes()[:wal.Len()-4]...) // crash mid-"b"

	recovered := New(1)
	if _, err := Replay(bytes.NewReader(torn), recovered); err != nil {
		t.Fatal(err)
	}
	// New incarnation logs onto a fresh WAL (the shard service checkpoints
	// at boot, truncating the torn tail away).
	var wal2 bytes.Buffer
	l2 := NewLogger(recovered, &wal2)
	l2.Put("c", []byte("3"))

	final := New(1)
	if _, err := Replay(bytes.NewReader(wal2.Bytes()), final); err != nil {
		t.Fatal(err)
	}
	if v, _ := l2.Get("a"); string(v) != "1" {
		t.Fatal("salvaged prefix lost after continue")
	}
	if v, _ := final.Get("c"); string(v) != "3" {
		t.Fatal("post-recovery write not replayable")
	}
	if _, ok := final.Get("b"); ok {
		t.Fatal("torn record resurrected")
	}
}

func TestRecoverDirLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Fresh directory: empty store.
	s, n, err := RecoverDir(dir, 2)
	if err != nil || n != 0 {
		t.Fatalf("fresh recover: %d records, %v", n, err)
	}

	// Run a logged workload, checkpoint, then more work into the WAL.
	wal, err := OpenWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLogger(s, wal)
	l.Put("pre", []byte("snap"))
	if err := Checkpoint(l, dir, wal); err != nil {
		t.Fatal(err)
	}
	l.Put("post", []byte("wal"))
	l.Append("ev", []byte("e1"))
	wal.Close()

	// Crash + recover: snapshot carries "pre", WAL replay carries "post".
	r, n, err := RecoverDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d WAL records on top of snapshot, want 2", n)
	}
	for _, k := range []string{"pre", "post"} {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("%s missing after dir recovery", k)
		}
	}
	if r.ListLen("ev") != 1 {
		t.Fatal("list append lost across dir recovery")
	}

	// Truncate the WAL mid-record: recovery still salvages the prefix.
	raw, err := os.ReadFile(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, WALName), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	r2, n2, err := RecoverDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 1 {
		t.Fatalf("torn dir WAL replayed %d records, want 1", n2)
	}
	if _, ok := r2.Get("post"); !ok {
		t.Fatal("whole-record prefix lost from torn dir WAL")
	}
}

// TestCheckpointCrashWindowSkipsStaleWAL pins the fence semantics: a
// crash inside Checkpoint after the snapshot rename but before the WAL
// cut leaves a new snapshot paired with the OLD WAL. Recovery must skip
// that WAL (its every mutation is in the snapshot) — replaying it would
// double-apply list appends.
func TestCheckpointCrashWindowSkipsStaleWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, err := RecoverDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLogger(s, wal)
	if err := Checkpoint(l, dir, wal); err != nil { // fence the WAL
		t.Fatal(err)
	}
	l.Append("ev", []byte("e1"))
	l.Put("k", []byte("v"))

	// Simulate the torn checkpoint: write the NEW snapshot (different
	// token) but "crash" before the WAL is truncated and re-fenced.
	if err := l.Store.snapshotFileToken(filepath.Join(dir, SnapshotName), 0xDEAD); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	r, n, err := RecoverDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("stale WAL replayed %d records onto a snapshot that contains them", n)
	}
	if r.ListLen("ev") != 1 {
		t.Fatalf("list has %d entries, want 1 (append double-applied)", r.ListLen("ev"))
	}
	if v, _ := r.Get("k"); string(v) != "v" {
		t.Fatal("snapshot state incomplete")
	}
}

// TestCheckpointFencePairsWAL: the normal path — snapshot and WAL cut by
// the same Checkpoint — replays post-checkpoint records exactly once.
func TestCheckpointFencePairsWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, err := RecoverDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLogger(s, wal)
	l.Put("pre", []byte("1"))
	if err := Checkpoint(l, dir, wal); err != nil {
		t.Fatal(err)
	}
	l.Append("ev", []byte("post"))
	wal.Close()

	r, n, err := RecoverDir(dir, 2)
	if err != nil || n != 1 {
		t.Fatalf("replayed %d records, %v; want 1", n, err)
	}
	if _, ok := r.Get("pre"); !ok {
		t.Fatal("pre-checkpoint state lost")
	}
	if r.ListLen("ev") != 1 {
		t.Fatal("post-checkpoint append lost or duplicated")
	}
}

func TestWALRejectsCorruptLength(t *testing.T) {
	bad := []byte{byte(walPut), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, err := Replay(bytes.NewReader(bad), New(1)); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

// Property: snapshot+restore preserves arbitrary key/value pairs.
func TestQuickSnapshotFidelity(t *testing.T) {
	f := func(keys []string, vals [][]byte) bool {
		s := New(3)
		want := make(map[string][]byte) // last write wins on duplicate keys
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			s.Put("k:"+k, v)
			want["k:"+k] = v
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			return false
		}
		r, err := Restore(&buf)
		if err != nil {
			return false
		}
		for k, v := range want {
			got, ok := r.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Control-plane recovery end to end: snapshot a gcs-shaped store, "crash",
// restore, and check the replayed store serves the same data.
func TestSnapshotThenWALCombined(t *testing.T) {
	var wal bytes.Buffer
	base := New(2)
	base.Put("task:1", []byte("spec1"))
	var snap bytes.Buffer
	if err := base.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// Mutations after the snapshot go to the WAL.
	l := NewLogger(base, &wal)
	l.Put("task:2", []byte("spec2"))
	l.Append("events:n1", []byte("ev"))

	// Crash. Recover = restore snapshot, then replay WAL.
	recovered, err := Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(wal.Bytes()), recovered); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"task:1", "task:2"} {
		if _, ok := recovered.Get(k); !ok {
			t.Fatalf("%s missing after recovery", k)
		}
	}
	if recovered.ListLen("events:n1") != 1 {
		t.Fatal("event log lost")
	}
}

// errWriter fails every write after a threshold.
type errWriter struct{ failAfter int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.failAfter <= 0 {
		return 0, os.ErrClosed
	}
	w.failAfter--
	return len(p), nil
}

// TestLoggerLatchesWriteFailure: once a WAL write errors, the logger
// reports Failed so the service stops acknowledging mutations the log
// never recorded.
func TestLoggerLatchesWriteFailure(t *testing.T) {
	l := NewLogger(New(1), &errWriter{failAfter: 3}) // one whole record
	l.Put("a", []byte("1"))
	if l.Failed() {
		t.Fatal("healthy write reported failed")
	}
	l.Put("b", []byte("2")) // header write errors
	if !l.Failed() {
		t.Fatal("write failure not latched")
	}
}

// TestAppendRingKeepsNewest: a bounded list holds the newest keep elements
// in order, in memory and after its WAL is replayed.
func TestAppendRingKeepsNewest(t *testing.T) {
	const keep = 4
	var wal bytes.Buffer
	l := NewLogger(New(2), &wal)
	for i := 0; i < 10*keep; i++ {
		l.AppendRing("ring", []byte{byte(i)}, keep)
	}
	replayed := New(2)
	if _, err := Replay(bytes.NewReader(wal.Bytes()), replayed); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"live": l.Store, "replayed": replayed} {
		got := s.List("ring")
		if len(got) != keep {
			t.Fatalf("%s: %d elements, want %d", name, len(got), keep)
		}
		for i, v := range got {
			if want := byte(10*keep - keep + i); v[0] != want {
				t.Fatalf("%s: element %d = %d, want %d", name, i, v[0], want)
			}
		}
	}
}
