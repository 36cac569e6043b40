package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/types"
)

// jobRegistry registers the toy functions the multi-tenant tests drive.
func jobRegistry() (*core.Registry, core.Func1[int, int], core.Func1[int, int]) {
	reg := core.NewRegistry()
	id := core.Register1(reg, "job.id", func(tc *core.TaskContext, x int) (int, error) {
		return x, nil
	})
	sleep := core.Register1(reg, "job.sleep", func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	return reg, id, sleep
}

// TestJobLifecycle is the acceptance test for the tenant job subsystem
// (DESIGN.md §14): create → submit under the job → stop → typed fencing →
// bulk reclaim → tombstoned records after the grace period.
func TestJobLifecycle(t *testing.T) {
	reg, id, sleep := jobRegistry()
	c, err := New(Config{Nodes: 2, NodeResources: types.CPU(4), Registry: reg,
		JobGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()

	job, err := d.CreateJob("tenant-a", 2, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := d.GetJob(job.ID)
	if !ok || info.State != types.JobRunning || info.Spec.Weight != 2 {
		t.Fatalf("job record after create: %+v ok=%v", info, ok)
	}

	// Tenanted tasks run normally and their records carry the job ID.
	refs := make([]core.Ref[int], 3)
	for i := range refs {
		if refs[i], err = id.Options(job.Option()).Remote(d, i); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range refs {
		if v, err := core.Get(ctx, d, r); err != nil || v != i {
			t.Fatalf("tenant task %d: v=%d err=%v", i, v, err)
		}
	}
	if tasks, complete := c.API.ScanTasks(gcs.TaskFilter{Job: job.ID}); !complete || len(tasks) != 3 {
		t.Fatalf("ScanTasks by job: %d records complete=%v, want 3", len(tasks), complete)
	}

	// Submitting under an unknown job fails fast and typed.
	var bogus types.JobID
	bogus[0] = 0xAB
	if _, err := id.Options(core.WithJob(bogus)).Remote(d, 1); !errors.Is(err, core.ErrJobNotFound) {
		t.Fatalf("unknown job submit: %v, want ErrJobNotFound", err)
	}

	// Hold live tasks in flight, then stop the job under them.
	inflight := make([]core.Ref[int], 4)
	for i := range inflight {
		if inflight[i], err = sleep.Options(job.Option()).Remote(d, 5000); err != nil {
			t.Fatal(err)
		}
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := job.Stop(); err != nil {
		t.Fatalf("StopJob must be idempotent: %v", err)
	}

	// New submissions are fenced (the admission cache refreshes within its
	// TTL, so the typed error surfaces after at most ~100ms).
	waitFor(t, 2*time.Second, "submission fence", func() bool {
		_, err := id.Options(job.Option()).Remote(d, 9)
		return errors.Is(err, core.ErrJobTerminated)
	})

	// The reclaim pass buries the in-flight tasks; blocked Gets observe a
	// typed job-stop error rather than hanging out the full sleep. A Get
	// that starts after a buried task's force-released records were retired
	// (DESIGN.md §17) finds no record to name the job: it is told so.
	for i, r := range inflight {
		got := make(chan error, 1)
		go func() { _, err := core.Get(ctx, d, r); got <- err }()
		select {
		case err := <-got:
			if err != nil && !errors.Is(err, core.ErrJobTerminated) && !errors.Is(err, core.ErrReclaimed) {
				t.Fatalf("in-flight task %d after stop: %v", i, err)
			}
		case <-time.After(4 * time.Second):
			t.Fatalf("Get of in-flight task %d hung past reclaim", i)
		}
	}

	// The job commits Stopped, and after the grace period its task records
	// go while the job record itself, moved to Purged, survives as the fence.
	waitFor(t, 5*time.Second, "job stopped", func() bool {
		info, ok := d.GetJob(job.ID)
		return ok && info.Stopped()
	})
	waitFor(t, 5*time.Second, "records purged", func() bool {
		info, ok := d.GetJob(job.ID)
		if !ok || info.PurgedNs == 0 {
			return false
		}
		tasks, complete := c.API.ScanTasks(gcs.TaskFilter{Job: job.ID})
		return complete && len(tasks) == 0
	})
	if _, err := id.Options(job.Option()).Remote(d, 1); !errors.Is(err, core.ErrJobTerminated) {
		t.Fatalf("submit against tombstone: %v, want ErrJobTerminated", err)
	}
}

// TestJobQuotaAdmission drives the fail-fast quota ceiling: with
// MaxLiveTasks=2, the third concurrent submission is refused with
// ErrJobQuota before any control-plane record is written.
func TestJobQuotaAdmission(t *testing.T) {
	reg, id, sleep := jobRegistry()
	c, err := New(Config{Nodes: 1, NodeResources: types.CPU(4), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()
	ctx := context.Background()

	job, err := d.CreateJob("capped", 1, types.JobQuota{MaxLiveTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sleep.Options(job.Option()).Remote(d, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sleep.Options(job.Option()).Remote(d, 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := id.Options(job.Option()).Remote(d, 1); !errors.Is(err, core.ErrJobQuota) {
		t.Fatalf("over-quota submit: %v, want ErrJobQuota", err)
	}
	// Quota is a ceiling on concurrency, not a lifetime budget: once the
	// live tasks finish (and the usage cache refreshes), headroom returns.
	for _, r := range []core.Ref[int]{a, b} {
		if _, err := core.Get(ctx, d, r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "quota headroom back", func() bool {
		r, err := id.Options(job.Option()).Remote(d, 7)
		if err != nil {
			return false
		}
		v, err := core.Get(ctx, d, r)
		return err == nil && v == 7
	})
}
