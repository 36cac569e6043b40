package cluster

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/types"
)

// fairShareCluster builds the contended-dispatch fixture: every task
// spills to the global scheduler (threshold 0), so the fair queue orders
// all dispatch.
func fairShareCluster(t *testing.T, reg *core.Registry) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes:          2,
		NodeResources:  types.CPU(2),
		Registry:       reg,
		SpillThreshold: SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func sleepTask(reg *core.Registry, name string) core.Func1[int, int] {
	return core.Register1(reg, name, func(tc *core.TaskContext, ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
}

// scheduledStamps returns the job's task ScheduledNs values, ascending,
// dropping tasks never dispatched.
func scheduledStamps(c *Cluster, job types.JobID) []int64 {
	var out []int64
	tasks, _ := c.API.ScanTasks(gcs.TaskFilter{Job: job})
	for _, st := range tasks {
		if st.ScheduledNs > 0 {
			out = append(out, st.ScheduledNs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestJobFairShareDispatch submits a weight-3 victim (120 tasks) against a
// weight-1 noisy neighbor flooding 240, and checks the EXPERIMENTS.md E25
// acceptance bound: over the steady-state window (the victim's 30th
// through 90th dispatch), dispatch share matches the 3:1 weights within
// 10%. Measured from the durable ScheduledNs stamps, so node-pipeline FIFO
// effects cannot dilute it.
func TestJobFairShareDispatch(t *testing.T) {
	reg := core.NewRegistry()
	work := sleepTask(reg, "fs.work")
	c := fairShareCluster(t, reg)
	d := c.Driver()

	noisy, err := d.CreateJob("noisy", 1, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := d.CreateJob("victim", 3, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}
	const victimTasks, noisyTasks = 120, 240
	for i := 0; i < noisyTasks; i++ {
		if _, err := work.Options(noisy.Option()).Remote(d, 8); err != nil {
			t.Fatal(err)
		}
		if i < victimTasks {
			if _, err := work.Options(victim.Option()).Remote(d, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 60*time.Second, "victim tasks finished", func() bool {
		tasks, _ := c.API.ScanTasks(gcs.TaskFilter{Job: victim.ID})
		done := 0
		for _, st := range tasks {
			if st.Status == types.TaskFinished {
				done++
			}
		}
		return done == victimTasks
	})

	vs := scheduledStamps(c, victim.ID)
	if len(vs) < 90 {
		t.Fatalf("victim dispatched %d tasks, want >= 90", len(vs))
	}
	// Steady-state window: between the victim's 30th and 90th dispatch the
	// fair queue held backlog for both jobs, so DRR fully governed ordering.
	lo, hi := vs[29], vs[89]
	noisyIn := 0
	for _, ts := range scheduledStamps(c, noisy.ID) {
		if ts > lo && ts <= hi {
			noisyIn++
		}
	}
	const victimIn = 60 // dispatches 31..90
	share := float64(victimIn) / float64(max(noisyIn, 1))
	t.Logf("steady-state window: victim %d dispatches, noisy %d — share %.2f:1 (weights 3:1)", victimIn, noisyIn, share)
	if share < 2.7 || share > 3.3 {
		t.Fatalf("dispatch share %.2f:1 outside 10%% of the 3:1 weights (victim %d, noisy %d)",
			share, victimIn, noisyIn)
	}
}

// TestJobIsolationLatency checks E25's noisy-neighbor property: a victim
// arriving behind an equal-weight neighbor's flood of 4x the work is not
// queued behind it. From the victim's last submission until its last
// dispatch both jobs hold backlog by construction, so deficit round-robin
// alternates them: the neighbor dispatches no more often than the victim,
// give or take what was already in the nodes' pipelines. Plain FIFO would
// dispatch the whole flood (~200 tasks) in that span. Read from the durable
// stamps, so it holds at any speed: the bound this replaced compared
// wall-clock medians and failed on a slow or a fast day.
func TestJobIsolationLatency(t *testing.T) {
	const victimTasks, noisyTasks = 60, 240
	reg := core.NewRegistry()
	work := sleepTask(reg, "iso.work")
	c := fairShareCluster(t, reg)
	d := c.Driver()
	noisy, err := d.CreateJob("noisy", 1, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := d.CreateJob("victim", 1, types.JobQuota{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < noisyTasks; i++ {
		if _, err := work.Options(noisy.Option()).Remote(d, 8); err != nil {
			t.Fatal(err)
		}
	}
	refs := make([]core.Ref[int], victimTasks)
	for i := range refs {
		if refs[i], err = work.Options(victim.Option()).Remote(d, 8); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, ref := range refs {
		if _, err := core.Get(ctx, d, ref); err != nil {
			t.Fatal(err)
		}
	}
	// The stamps ride each executing node's batched ledger flush: land them
	// before reading.
	for i := 0; i < c.NumNodes(); i++ {
		c.Node(i).TaskLedger().Flush()
	}

	var allSubmitted int64
	tasks, _ := c.API.ScanTasks(gcs.TaskFilter{Job: victim.ID})
	for _, st := range tasks {
		allSubmitted = max(allSubmitted, st.SubmittedNs)
	}
	vs := scheduledStamps(c, victim.ID)
	if len(vs) != victimTasks || allSubmitted == 0 {
		t.Fatalf("victim stamps: %d dispatched (want %d), last submitted at %d", len(vs), victimTasks, allSubmitted)
	}
	between := func(stamps []int64) (n int) {
		for _, ts := range stamps {
			if ts > allSubmitted && ts <= vs[len(vs)-1] {
				n++
			}
		}
		return n
	}
	victimIn, noisyIn := between(vs), between(scheduledStamps(c, noisy.ID))
	// A stamp trails its fair-queue pop by the node's pipeline: up to 6 per
	// node popped before the span and stamped inside it, 6 more on the node
	// that is ahead at its end, and the round-robin's phase.
	const pipeline = 3*6 + 2
	limit := victimIn + (victimIn+9)/10 + pipeline
	t.Logf("with both jobs backlogged: victim %d dispatches, noisy %d (limit %d; FIFO would be ~%d)",
		victimIn, noisyIn, limit, noisyTasks-pipeline)
	if noisyIn > limit {
		t.Fatalf("noisy neighbor dispatched %d tasks while the victim, backlogged throughout, dispatched %d: over the equal share (limit %d)",
			noisyIn, victimIn, limit)
	}
}
