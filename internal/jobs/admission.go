package jobs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// Control is the slice of the control-plane API admission needs. gcs.API
// satisfies it; tests satisfy it with fixtures.
type Control interface {
	GetJob(id types.JobID) (types.JobInfo, bool)
	ScanTasks(f gcs.TaskFilter) ([]types.TaskState, bool)
	Objects() []types.ObjectInfo
}

// Usage is one job's measured footprint, the quantity quotas meter.
type Usage struct {
	// LiveTasks counts the job's non-terminal task records.
	LiveTasks int
	// QueueDepth counts the subset sitting unscheduled (PENDING or QUEUED).
	QueueDepth int
	// ObjectBytes sums the sizes of undrained objects attributed to the
	// job through producer-task lineage edges.
	ObjectBytes int64
}

// ComputeUsage folds cluster scans into per-job footprints. Objects are
// attributed to the job of their producer task; records whose producer has
// already been purged are unattributable and meter nobody (conservative in
// the tenant's favor).
func ComputeUsage(tasks []types.TaskState, objects []types.ObjectInfo) map[types.JobID]Usage {
	out := make(map[types.JobID]Usage)
	producerJob := make(map[types.TaskID]types.JobID, len(tasks))
	for _, t := range tasks {
		producerJob[t.Spec.ID] = t.Spec.Job
		if t.Spec.Job.IsNil() {
			continue
		}
		u := out[t.Spec.Job]
		if !t.Status.Terminal() {
			u.LiveTasks++
		}
		if t.Status == types.TaskPending || t.Status == types.TaskQueued {
			u.QueueDepth++
		}
		out[t.Spec.Job] = u
	}
	for _, o := range objects {
		job, ok := producerJob[o.Producer]
		if !ok || job.IsNil() {
			continue
		}
		u := out[job]
		u.ObjectBytes += o.Size
		out[job] = u
	}
	return out
}

// Admission enforces per-job quotas at submit time. Both the job record
// and the cluster usage scan are cached for a short TTL — admission sits
// on the submit fast path, and a quota is a ceiling, not an exact meter;
// an optimistic in-flight counter covers the submissions admitted between
// scans so a burst cannot blow arbitrarily far past the ceiling.
type Admission struct {
	ctrl Control
	ttl  time.Duration

	mu       sync.Mutex
	jobs     map[types.JobID]cachedJob
	usage    map[types.JobID]Usage
	usageAt  time.Time
	inflight map[types.JobID]int
}

type cachedJob struct {
	info types.JobInfo
	at   time.Time
}

// NewAdmission wraps a control plane. ttl <= 0 selects 100ms — long enough
// to amortize the scans across a submit burst, short enough that a stop or
// quota edit lands within an eye-blink.
func NewAdmission(ctrl Control, ttl time.Duration) *Admission {
	if ttl <= 0 {
		ttl = 100 * time.Millisecond
	}
	return &Admission{
		ctrl:     ctrl,
		ttl:      ttl,
		jobs:     make(map[types.JobID]cachedJob),
		usage:    make(map[types.JobID]Usage),
		inflight: make(map[types.JobID]int),
	}
}

// Job returns the (cached) job record.
func (a *Admission) Job(id types.JobID) (types.JobInfo, bool) {
	a.mu.Lock()
	c, ok := a.jobs[id]
	fresh := ok && time.Since(c.at) < a.ttl
	a.mu.Unlock()
	if fresh {
		return c.info, true
	}
	info, ok := a.ctrl.GetJob(id)
	if !ok {
		return types.JobInfo{}, false
	}
	a.mu.Lock()
	a.jobs[id] = cachedJob{info: info, at: time.Now()}
	a.mu.Unlock()
	return info, true
}

// Observe force-updates the job cache from a subscription event, so a stop
// fences new submissions without waiting out the TTL.
func (a *Admission) Observe(info types.JobInfo) {
	a.mu.Lock()
	a.jobs[info.Spec.ID] = cachedJob{info: info, at: time.Now()}
	a.mu.Unlock()
}

// Admit decides one submission: nil to admit, or a typed error
// (ErrJobNotFound / ErrJobTerminated / ErrJobQuota) to reject. A nil job
// ID is the untenanted default and is always admitted.
func (a *Admission) Admit(job types.JobID) error {
	if job.IsNil() {
		return nil
	}
	info, ok := a.Job(job)
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobNotFound, job)
	}
	if info.State != types.JobRunning {
		return fmt.Errorf("%w: %s is %s", ErrJobTerminated, job, info.State)
	}
	q := info.Spec.Quota
	if q.MaxLiveTasks == 0 && q.MaxQueueDepth == 0 && q.MaxObjectBytes == 0 {
		return nil // unlimited: skip the usage scan entirely
	}
	u, pending := a.jobUsage(job)
	if q.MaxLiveTasks > 0 && u.LiveTasks+pending >= q.MaxLiveTasks {
		return fmt.Errorf("%w: %s live tasks %d at ceiling %d", ErrJobQuota, job, u.LiveTasks+pending, q.MaxLiveTasks)
	}
	if q.MaxQueueDepth > 0 && u.QueueDepth+pending >= q.MaxQueueDepth {
		return fmt.Errorf("%w: %s queue depth %d at ceiling %d", ErrJobQuota, job, u.QueueDepth+pending, q.MaxQueueDepth)
	}
	if q.MaxObjectBytes > 0 && u.ObjectBytes >= q.MaxObjectBytes {
		return fmt.Errorf("%w: %s object bytes %d at ceiling %d", ErrJobQuota, job, u.ObjectBytes, q.MaxObjectBytes)
	}
	a.mu.Lock()
	a.inflight[job]++
	a.mu.Unlock()
	return nil
}

// jobUsage returns the job's scanned usage plus its optimistic in-flight
// count, refreshing the cluster scan when the cache has aged out.
func (a *Admission) jobUsage(job types.JobID) (Usage, int) {
	a.mu.Lock()
	stale := time.Since(a.usageAt) >= a.ttl
	a.mu.Unlock()
	if stale {
		tasks, _ := a.ctrl.ScanTasks(gcs.TaskFilter{})
		usage := ComputeUsage(tasks, a.ctrl.Objects())
		a.mu.Lock()
		// Re-check under the lock: a concurrent refresh may have won.
		if time.Since(a.usageAt) >= a.ttl {
			a.usage = usage
			a.usageAt = time.Now()
			// The fresh scan has absorbed previously-admitted submissions.
			a.inflight = make(map[types.JobID]int)
		}
		a.mu.Unlock()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usage[job], a.inflight[job]
}
