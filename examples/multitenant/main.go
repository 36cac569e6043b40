// Multitenant: the job subsystem end to end (DESIGN.md §14). Two jobs
// share a small cluster as noisy neighbors — a weight-3 "production"
// tenant and a weight-1 "background" tenant flood the same dispatch queue
// and the global scheduler's deficit round-robin splits throughput 3:1. A
// third tenant runs into its admission quota and fails fast. Finally the
// background job is stopped mid-flight: its live tasks are buried, its
// objects reclaimed, and after the grace period its records are
// tombstoned, leaving only the Stopped job record to fence late
// submissions.
//
//	go run ./examples/multitenant
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/types"
)

const (
	prodTasks = 120
	// The noisy neighbor queues 3x more work than production, so the two
	// jobs contend for dispatch for production's entire run.
	bgTasks = 360
)

func main() {
	reg := core.NewRegistry()
	work := core.Register1(reg, "work", func(tc *core.TaskContext, n int) (int, error) {
		time.Sleep(15 * time.Millisecond)
		return n, nil
	})

	c, err := cluster.New(cluster.Config{
		Nodes:         2,
		NodeResources: types.CPU(2),
		Registry:      reg,
		// Spill threshold 0 sends every task through the global scheduler's
		// fair queue — the contended dispatch path where weights matter.
		SpillThreshold: cluster.SpillThresholdOf(0),
		GlobalPolicy:   &scheduler.RoundRobinPolicy{},
		JobGrace:       300 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	d := c.Driver()

	// 1. Weighted fair share: both tenants flood the queue at once; the
	//    deficit round-robin hands production three dispatch slots for every
	//    one background gets.
	background, err := d.CreateJob("background", 1, types.JobQuota{})
	if err != nil {
		log.Fatal(err)
	}
	production, err := d.CreateJob("production", 3, types.JobQuota{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("noisy neighbor: background floods %d tasks at weight 1, production runs %d at weight 3\n",
		bgTasks, prodTasks)
	for i := 0; i < bgTasks; i++ {
		if _, err := work.Options(background.Option()).Remote(d, i); err != nil {
			log.Fatal(err)
		}
		if i < prodTasks {
			if _, err := work.Options(production.Option()).Remote(d, i); err != nil {
				log.Fatal(err)
			}
		}
	}

	finished := func(job types.JobID) int {
		n := 0
		tasks, _ := c.Ctrl.ScanTasks(gcs.TaskFilter{Job: job})
		for _, t := range tasks {
			if t.Status == types.TaskFinished {
				n++
			}
		}
		return n
	}
	// While both jobs stay backlogged the finished counts track dispatch
	// share directly. Measure at production's 75% mark — past that its fair
	// queue ring drains and the work-conserving scheduler hands the idle
	// share back to the neighbor, diluting the ratio.
	const measureAt = prodTasks * 3 / 4
	var prodSnap, bgSnap int
	for i := 0; ; i++ {
		prod := finished(production.ID)
		bg := finished(background.ID)
		if i%6 == 0 {
			fmt.Printf("  finished: production %3d/%d  background %3d/%d\n", prod, prodTasks, bg, bgTasks)
		}
		if prodSnap == 0 && prod >= measureAt {
			prodSnap, bgSnap = prod, bg
		}
		if prod >= prodTasks {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	ratio := float64(prodSnap) / float64(max(bgSnap, 1))
	fmt.Printf("at production's %d-task mark the noisy neighbor had finished %d — observed share ≈ %.1f:1 (want ~3:1)\n\n",
		prodSnap, bgSnap, ratio)

	// 2. Admission quotas: a capped tenant fails fast instead of flooding.
	capped, err := d.CreateJob("capped", 1, types.JobQuota{MaxLiveTasks: 4})
	if err != nil {
		log.Fatal(err)
	}
	var quotaErr error
	admitted := 0
	for i := 0; i < 32 && quotaErr == nil; i++ {
		if _, err := work.Options(capped.Option()).Remote(d, i); err != nil {
			quotaErr = err
		} else {
			admitted++
		}
	}
	if !errors.Is(quotaErr, core.ErrJobQuota) {
		log.Fatalf("expected ErrJobQuota, got %v", quotaErr)
	}
	fmt.Printf("capped tenant (MaxLiveTasks=4): %d submissions admitted, then: %v\n\n", admitted, quotaErr)

	// 3. Bulk reclamation: stop the background tenant mid-flood — it still
	//    has hundreds of tasks queued or running. The reclaim pass drops its
	//    fair-queue backlog, buries whatever is live, force-releases the
	//    job's objects, and after the grace period tombstones every record.
	remaining := bgTasks - finished(background.ID)
	if err := background.Stop(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stopped the background tenant with ~%d tasks still in flight or queued...\n", remaining)
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, ok := c.Ctrl.GetJob(background.ID)
		if ok && info.State == types.JobPurged {
			tasks, _ := c.Ctrl.ScanTasks(gcs.TaskFilter{Job: background.ID})
			fmt.Printf("background job: state=%s, task records left=%d (tombstoned after %s grace)\n",
				info.State, len(tasks), 300*time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("background job never purged")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if _, err := work.Options(background.Option()).Remote(d, 0); errors.Is(err, core.ErrJobTerminated) {
		fmt.Printf("late submission against the tombstone: %v\n", err)
	} else {
		log.Fatalf("tombstone did not fence: %v", err)
	}
}
