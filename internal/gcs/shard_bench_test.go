package gcs

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/kv"
	"repro/internal/transport"
	"repro/internal/types"
)

// populateShardDir fills a shard data directory with nTasks task records
// and nObjs object records (snapshot after checkpoint, WAL afterwards),
// then kills the shard, leaving recoverable state on disk.
func populateShardDir(b *testing.B, nw *transport.Inproc, dir string, addr string, snapRecords, walRecords int) {
	b.Helper()
	svc, err := StartShard(ShardConfig{Index: 0, Addr: addr, Network: nw, DataDir: dir, DisableEventLog: true})
	if err != nil {
		b.Fatal(err)
	}
	st := svc.Store()
	fill := func(n, base int) {
		for i := 0; i < n; i++ {
			var task types.TaskID
			copy(task[:], fmt.Sprintf("t%07d", base+i))
			st.AddTask(types.TaskState{Spec: types.TaskSpec{ID: task, Function: "f"}, Status: types.TaskFinished})
			var obj types.ObjectID
			copy(obj[:], fmt.Sprintf("o%07d", base+i))
			st.EnsureObject(obj, task)
			addRef(st, obj, 1)
		}
	}
	fill(snapRecords, 0)
	if err := svc.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	fill(walRecords, snapRecords)
	svc.Kill()
}

// BenchmarkShardRecovery measures E16: the wall-clock cost of restarting a
// killed control-plane shard — snapshot restore + WAL replay + boot
// checkpoint + relisten — for a shard holding ~3 kv records per entry.
// Each iteration restarts from the same on-disk state (Restart checkpoints
// at boot, so iterations after the first recover from snapshot only; the
// first iteration's WAL replay cost is isolated by BenchmarkWALReplay).
func BenchmarkShardRecovery(b *testing.B) {
	for _, entries := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			nw := transport.NewInproc(0)
			dir := b.TempDir()
			addr := fmt.Sprintf("bench-shard-%d", entries)
			populateShardDir(b, nw, dir, addr, entries, 0)
			svc, err := StartShard(ShardConfig{Index: 0, Addr: addr, Network: nw, DataDir: dir, DisableEventLog: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.Kill()
				if err := svc.Restart(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			svc.Close()
		})
	}
}

// BenchmarkWALReplay measures the WAL half of recovery: applying a log of
// task-table puts to a fresh store (kv.RecoverDir with no snapshot).
func BenchmarkWALReplay(b *testing.B) {
	for _, records := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records-%d", records), func(b *testing.B) {
			dir := b.TempDir()
			db, _, err := kv.RecoverDir(dir, 4)
			if err != nil {
				b.Fatal(err)
			}
			wal, err := kv.OpenWALDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			l := kv.NewLogger(db, wal)
			payload := codec.MustEncode(types.TaskState{Spec: types.TaskSpec{Function: "f"}, Status: types.TaskFinished})
			for i := 0; i < records; i++ {
				l.Put(fmt.Sprintf("task:%08d", i), payload)
			}
			wal.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, n, err := kv.RecoverDir(dir, 4); err != nil || n != records {
					b.Fatalf("replayed %d, %v", n, err)
				}
			}
		})
	}
}
