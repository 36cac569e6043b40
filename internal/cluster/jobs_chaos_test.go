package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// TestJobStopShardKillMidReclaim crash-fails a control-plane shard in the
// middle of a StopJob reclaim — after the Stopping CAS, while live tasks
// are being buried and object refs force-released — with the supervisor
// auto-restarting it from snapshot+WAL. The reclaim pipeline must converge
// anyway (every step re-derives its inputs from durable tables): the job
// commits Stopped, refcounts drain to zero, no buried task resurrects, and
// the purge tombstones survive a further shard restart.
func TestJobStopShardKillMidReclaim(t *testing.T) {
	reg := core.NewRegistry()
	quick := core.Register1(reg, "jchaos.quick", func(tc *core.TaskContext, x int) (int, error) {
		return x * 2, nil
	})
	slow := core.Register1(reg, "jchaos.slow", func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	c, err := New(Config{
		Nodes:          3,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		GCSShards:      3,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
		JobGrace:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	job, err := d.CreateJob("chaos-tenant", 1, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}

	// A mix of terminal and live tenant work: finished tasks whose objects
	// are still referenced by the driver, plus in-flight sleeps spread
	// across the nodes.
	var ids []types.TaskID
	for i := 0; i < 6; i++ {
		ref, err := quick.Options(job.Option()).Remote(d, i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ref.Untyped().Task)
	}
	for i := 0; i < 6; i++ {
		ref, err := slow.Options(job.Option()).Remote(d, 3000)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ref.Untyped().Task)
	}
	// Let the quick tasks land and the slow ones dispatch.
	waitFor(t, 10*time.Second, "tenant burst visible", func() bool {
		tasks, complete := c.API.ScanTasks(gcs.TaskFilter{Job: job.ID})
		return complete && len(tasks) == len(ids)
	})

	// Stop, then kill the shard owning the job record mid-reclaim; the
	// supervisor restarts it from durable state.
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	idx := c.API.(*gcs.Sharded).Map().ShardForKey(gcs.JobKey(job.ID))
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Super.KillShard(idx)
		time.Sleep(50 * time.Millisecond)
		c.Super.KillShard((idx + 1) % 3) // a second shard once the first recovered
	}()

	// The reclaim must converge across the kills: Stopped committed, then
	// purged, with a complete shard view backing each conclusion.
	check := chaostest.New(c.API)
	waitFor(t, 30*time.Second, "job stopped across shard kills", func() bool {
		info, ok := c.API.GetJob(job.ID)
		return ok && info.Stopped()
	})
	waitFor(t, 30*time.Second, "job purged across shard kills", func() bool {
		info, ok := c.API.GetJob(job.ID)
		if !ok || info.PurgedNs == 0 {
			return false
		}
		tasks, complete := c.API.ScanTasks(gcs.TaskFilter{Job: job.ID})
		return complete && len(tasks) == 0
	})

	// Refcount conservation: the force release drained every reference the
	// tenant's objects carried, and nothing leaked through the kills.
	check.AwaitZeroRefcounts(t, 30*time.Second)

	// No resurrection: the purge left no task records behind, and none may
	// reappear — not from a straggler ledger flush, not from a WAL replay,
	// not from lineage reconstruction of a purged object.
	time.Sleep(300 * time.Millisecond)
	if tasks, complete := c.API.ScanTasks(gcs.TaskFilter{Job: job.ID}); !complete || len(tasks) != 0 {
		t.Fatalf("tenant task records resurrected after purge: %d (complete=%v)", len(tasks), complete)
	}

	// Submissions against the tombstone stay fenced.
	if _, err := quick.Options(job.Option()).Remote(d, 1); !errors.Is(err, core.ErrJobTerminated) {
		t.Fatalf("submit against tombstone: %v, want ErrJobTerminated", err)
	}

	// The tombstones are durable: restart the job record's shard and the
	// Purged record must replay from snapshot+WAL, not revert.
	c.Super.KillShard(idx)
	waitFor(t, 20*time.Second, "shard back after tombstone restart", func() bool {
		p, ok := c.API.(gcs.Pinger)
		return ok && p.Ping()
	})
	info, ok := c.API.GetJob(job.ID)
	if !ok || info.State != types.JobPurged || info.PurgedNs == 0 {
		t.Fatalf("job tombstone did not survive restart: %+v ok=%v", info, ok)
	}
	if tasks, complete := c.API.ScanTasks(gcs.TaskFilter{Job: job.ID}); !complete || len(tasks) != 0 {
		t.Fatalf("purged task records resurrected by WAL replay: %d (complete=%v)", len(tasks), complete)
	}
}
