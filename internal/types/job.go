package types

import (
	"encoding/hex"
	"fmt"
	"slices"
)

// JobID names a job: one tenant's workload — a driver session, a batch
// submission, a service — whose tasks are scheduled, metered, and reclaimed
// as a unit (DESIGN.md §14).
type JobID [IDSize]byte

// NilJobID is the zero value; a TaskSpec carrying it belongs to no job and
// is scheduled under the default (weight-1) share.
var NilJobID JobID

func (id JobID) String() string { return "job-" + shortHex(id[:]) }

// Hex returns the full hexadecimal form, used as a control-plane key.
func (id JobID) Hex() string { return hex.EncodeToString(id[:]) }

// IsNil reports whether the ID is the zero value.
func (id JobID) IsNil() bool { return id == NilJobID }

// ParseJobID parses the full hexadecimal form produced by Hex.
func ParseJobID(s string) (JobID, error) {
	var id JobID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != IDSize {
		return id, fmt.Errorf("types: bad job id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// JobQuota is a job's admission ceiling. Zero fields are unlimited; a
// submission that would exceed any non-zero ceiling fails fast at submit
// time with a typed error instead of entering the queues.
type JobQuota struct {
	// MaxLiveTasks caps the job's concurrently live (non-terminal) tasks.
	MaxLiveTasks int
	// MaxQueueDepth caps the job's tasks sitting unscheduled (PENDING or
	// QUEUED) across the cluster.
	MaxQueueDepth int
	// MaxObjectBytes caps the bytes of undrained objects produced by the
	// job's tasks, as attributed through the object table's Producer edges.
	MaxObjectBytes int64
}

// Validate checks the quota for structural errors.
func (q *JobQuota) Validate() error {
	if q.MaxLiveTasks < 0 || q.MaxQueueDepth < 0 || q.MaxObjectBytes < 0 {
		return fmt.Errorf("types: job quota fields must be non-negative")
	}
	return nil
}

// JobSpec is the immutable half of a job record.
type JobSpec struct {
	ID   JobID
	Name string // human label for dashboards; not a key
	// Weight is the job's fair-share weight: when the global scheduler's
	// dispatch queue is contended, jobs receive dispatch slots in proportion
	// to their weights (deficit round-robin). Zero selects 1.
	Weight int
	// Quota is the job's admission ceiling (zero fields unlimited).
	Quota JobQuota
}

// FairWeight returns the effective scheduling weight (zero selects 1).
func (s *JobSpec) FairWeight() int {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}

// Validate checks the spec for structural errors before creation.
func (s *JobSpec) Validate() error {
	if s.ID.IsNil() {
		return fmt.Errorf("types: job has nil ID")
	}
	if s.Weight < 0 {
		return fmt.Errorf("types: job %s has negative weight %d", s.ID, s.Weight)
	}
	if err := s.Quota.Validate(); err != nil {
		return fmt.Errorf("job %s: %w", s.ID, err)
	}
	return nil
}

// JobState is the lifecycle state of a job record.
type JobState int

// Job lifecycle. Running admits submissions. Stopping marks a reclaim in
// progress: submissions are fenced, the job's live tasks are failed with
// ReasonJobStopped, and its object refs are force-released. Stopped is
// reached only once every live task is buried and every ref dropped; after
// a grace period the job's task and object records are purged and the job
// moves to Purged, which is final: the Purged job record itself is the
// durable tombstone (so replayed submissions against the dead job keep
// failing typed).
const (
	JobRunning JobState = iota
	JobStopping
	JobStopped
	JobPurged
)

var jobStateNames = [...]string{"RUNNING", "STOPPING", "STOPPED", "PURGED"}

func (s JobState) String() string {
	if s < 0 || int(s) >= len(jobStateNames) {
		return fmt.Sprintf("JobState(%d)", int(s))
	}
	return jobStateNames[s]
}

// Terminal reports whether the job has ended: Stopped, or Purged after it.
func (s JobState) Terminal() bool { return s >= JobStopped }

// JobInfo is the job-table record: spec plus mutable lifecycle state. It is
// durable like every other control-plane record (WAL + snapshot on a
// sharded deployment) and survives its own workload: the Purged record is
// the tombstone that outlives the purged task/object records.
type JobInfo struct {
	Spec  JobSpec
	State JobState
	// Timestamps in nanoseconds since the cluster epoch.
	CreatedNs        int64
	StoppingNs       int64
	StoppedNs        int64
	LastTransitionNs int64
	// PurgedNs is stamped by the transition to Purged, once the job's task
	// and object records are gone after the post-stop grace period; zero
	// means reclamation of records is still pending (or the job is live).
	PurgedNs int64
	// MutOps dedups a state CAS retried across a shard crash (see OpRing).
	MutOps OpRing
}

// Stopped reports whether the job has ended (State.Terminal).
func (j *JobInfo) Stopped() bool { return j.State.Terminal() }

// Clone returns a deep copy: no slice is shared with j.
func (j *JobInfo) Clone() JobInfo {
	c := *j
	c.MutOps = slices.Clone(j.MutOps)
	return c
}

// ReasonJobStopped prefixes the failure message stored into the return
// objects of tasks buried by a job stop; the core layer recognizes it and
// surfaces a typed error from Get.
const ReasonJobStopped = "job-stopped: "
