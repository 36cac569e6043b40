package gcs

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// TestWALSizeTriggeredCheckpoint churns mutations through a supervised
// shard with a small checkpoint threshold and asserts the WAL stays
// bounded: size-triggered checkpoints must keep recovery replay cost
// proportional to the threshold, not to uptime. The test runs the
// supervision pass itself after every round of mutations, so the bound is
// exact: one round past the threshold. Durability is re-verified by a
// kill+restart after the churn — the snapshot the checkpoints wrote (plus
// whatever WAL tail remains) must reproduce the final state.
func TestWALSizeTriggeredCheckpoint(t *testing.T) {
	const threshold = 8 << 10 // 8 KiB: small enough that churn crosses it many times
	nw := transport.NewInproc(0)
	sup, err := NewSupervisor(SupervisorConfig{
		Shards:  1,
		Network: nw,
		MapAddr: "gcs",
		DataDir: t.TempDir(),
		// The ticker never fires during the test: the passes below are the
		// only ones.
		AutoRestart:        time.Hour,
		CheckpointWALBytes: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	s := newTestSharded(t, nw)

	// Churn: job records created and walked through their lifecycle — every
	// call below is a WAL'd mutation on the single shard.
	var maxWAL, round int64
	truncations := 0
	var jobs []types.JobID
	for i := 0; i < 400; i++ {
		before := sup.Shard(0).Stats().WALBytes
		var id types.JobID
		id[0], id[1], id[2] = byte(i), byte(i>>8), 0x5A
		if !s.CreateJob(types.JobSpec{ID: id, Name: "churn", Weight: 1}) {
			t.Fatalf("CreateJob %d", i)
		}
		jobs = append(jobs, id)
		s.CASJobState(id, []types.JobState{types.JobRunning}, types.JobStopping)
		s.CASJobState(id, []types.JobState{types.JobStopping}, types.JobStopped)
		w := sup.Shard(0).Stats().WALBytes
		maxWAL, round = max(maxWAL, w), max(round, w-before)
		sup.checkpointOversized()
		if after := sup.Shard(0).Stats().WALBytes; after < w {
			truncations++
		} else if w >= threshold {
			t.Fatalf("round %d: a WAL of %d bytes, over the %d-byte threshold, was not checkpointed", i, w, threshold)
		}
	}

	// The bound: the WAL never exceeds the threshold by more than one round
	// of mutations — hundreds of KiB without checkpoints.
	if maxWAL >= threshold+round {
		t.Fatalf("WAL grew to %d bytes under churn (threshold %d, one round %d): checkpoints not bounding it", maxWAL, threshold, round)
	}
	if truncations == 0 {
		t.Fatalf("WAL never truncated (max %d bytes)", maxWAL)
	}

	// Durability across the checkpoints: kill and restart from
	// snapshot+WAL; every record must survive.
	sup.KillShard(0)
	if err := sup.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Jobs()); got != len(jobs) {
		t.Fatalf("job records after restart = %d, want %d", got, len(jobs))
	}
	for _, id := range []types.JobID{jobs[0], jobs[len(jobs)/2], jobs[len(jobs)-1]} {
		info, ok := s.GetJob(id)
		if !ok || info.State != types.JobStopped {
			t.Fatalf("job %v after restart: %+v ok=%v", id, info, ok)
		}
	}
}
