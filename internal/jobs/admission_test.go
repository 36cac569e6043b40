package jobs

import (
	"errors"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

type fakeControl struct {
	jobs    map[types.JobID]types.JobInfo
	tasks   []types.TaskState
	objects []types.ObjectInfo
	gets    int
	scans   int
}

func (f *fakeControl) GetJob(id types.JobID) (types.JobInfo, bool) {
	f.gets++
	info, ok := f.jobs[id]
	return info, ok
}
func (f *fakeControl) ScanTasks(gcs.TaskFilter) ([]types.TaskState, bool) {
	f.scans++
	return f.tasks, true
}
func (f *fakeControl) Objects() []types.ObjectInfo { return f.objects }

func runningJob(id types.JobID, quota types.JobQuota) types.JobInfo {
	return types.JobInfo{
		Spec:  types.JobSpec{ID: id, Weight: 1, Quota: quota},
		State: types.JobRunning,
	}
}

func taskIn(job types.JobID, n byte, status types.TaskStatus) types.TaskState {
	var id types.TaskID
	id[0] = n
	id[1] = job[0]
	return types.TaskState{Spec: types.TaskSpec{ID: id, Job: job}, Status: status}
}

func TestAdmitUnknownAndTerminatedJobs(t *testing.T) {
	a, b := jobID(1), jobID(2)
	fc := &fakeControl{jobs: map[types.JobID]types.JobInfo{}}
	stopped := runningJob(b, types.JobQuota{})
	stopped.State = types.JobStopped
	fc.jobs[b] = stopped
	adm := NewAdmission(fc, time.Hour)

	if err := adm.Admit(types.NilJobID); err != nil {
		t.Fatalf("nil job rejected: %v", err)
	}
	if err := adm.Admit(a); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown job: %v, want ErrJobNotFound", err)
	}
	if err := adm.Admit(b); !errors.Is(err, ErrJobTerminated) {
		t.Fatalf("stopped job: %v, want ErrJobTerminated", err)
	}
	stopping := stopped
	stopping.State = types.JobStopping
	adm.Observe(stopping)
	if err := adm.Admit(b); !errors.Is(err, ErrJobTerminated) {
		t.Fatalf("stopping job: %v, want ErrJobTerminated", err)
	}
}

func TestAdmitQuotaCeilings(t *testing.T) {
	a := jobID(1)
	fc := &fakeControl{jobs: map[types.JobID]types.JobInfo{
		a: runningJob(a, types.JobQuota{MaxLiveTasks: 3}),
	}}
	fc.tasks = []types.TaskState{
		taskIn(a, 1, types.TaskRunning),
		taskIn(a, 2, types.TaskPending),
		taskIn(a, 3, types.TaskFinished), // terminal: not live
	}
	adm := NewAdmission(fc, time.Hour)
	if err := adm.Admit(a); err != nil {
		t.Fatalf("submit under ceiling rejected: %v", err)
	}
	// 2 scanned live + 1 in-flight = ceiling; next must fail fast.
	if err := adm.Admit(a); !errors.Is(err, ErrJobQuota) {
		t.Fatalf("submit at ceiling: %v, want ErrJobQuota", err)
	}
}

func TestAdmitObjectBytesCeiling(t *testing.T) {
	a := jobID(1)
	producer := taskIn(a, 1, types.TaskFinished)
	fc := &fakeControl{
		jobs:  map[types.JobID]types.JobInfo{a: runningJob(a, types.JobQuota{MaxObjectBytes: 100})},
		tasks: []types.TaskState{producer},
		objects: []types.ObjectInfo{
			{Producer: producer.Spec.ID, Size: 60},
			{Producer: producer.Spec.ID, Size: 50},
		},
	}
	adm := NewAdmission(fc, time.Hour)
	if err := adm.Admit(a); !errors.Is(err, ErrJobQuota) {
		t.Fatalf("over byte ceiling: %v, want ErrJobQuota", err)
	}
}

func TestAdmitUnlimitedSkipsScan(t *testing.T) {
	a := jobID(1)
	fc := &fakeControl{jobs: map[types.JobID]types.JobInfo{a: runningJob(a, types.JobQuota{})}}
	adm := NewAdmission(fc, time.Hour)
	for i := 0; i < 5; i++ {
		if err := adm.Admit(a); err != nil {
			t.Fatalf("unlimited job rejected: %v", err)
		}
	}
	if fc.scans != 0 {
		t.Fatalf("unlimited admission ran %d usage scans, want 0", fc.scans)
	}
	if fc.gets != 1 {
		t.Fatalf("record fetched %d times under TTL, want 1", fc.gets)
	}
}

func TestComputeUsageAttribution(t *testing.T) {
	a, b := jobID(1), jobID(2)
	pa := taskIn(a, 1, types.TaskRunning)
	pb := taskIn(b, 2, types.TaskQueued)
	var orphan types.TaskID
	orphan[0] = 99
	usage := ComputeUsage(
		[]types.TaskState{pa, pb, taskIn(a, 3, types.TaskFailed)},
		[]types.ObjectInfo{
			{Producer: pa.Spec.ID, Size: 10},
			{Producer: pb.Spec.ID, Size: 20},
			{Producer: orphan, Size: 1 << 40}, // purged producer: meters nobody
		},
	)
	if u := usage[a]; u.LiveTasks != 1 || u.QueueDepth != 0 || u.ObjectBytes != 10 {
		t.Fatalf("job a usage = %+v", u)
	}
	if u := usage[b]; u.LiveTasks != 1 || u.QueueDepth != 1 || u.ObjectBytes != 20 {
		t.Fatalf("job b usage = %+v", u)
	}
}
