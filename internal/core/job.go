package core

import (
	"crypto/rand"
	"fmt"

	"repro/internal/jobs"
	"repro/internal/types"
)

// Typed job-submission errors (aliases of the jobs package's, so drivers
// can errors.Is against core's public surface alone).
var (
	// ErrJobNotFound marks a submission against a job the control plane
	// has no record of — create the job before submitting under it.
	ErrJobNotFound = jobs.ErrJobNotFound
	// ErrJobTerminated marks a submission against a stopping or stopped
	// job, and also wraps Get errors for tasks buried by a job stop.
	ErrJobTerminated = jobs.ErrJobTerminated
	// ErrJobQuota marks a submission rejected by the job's admission
	// ceiling (live tasks, queue depth, or object bytes).
	ErrJobQuota = jobs.ErrJobQuota
)

// JobGate is optionally implemented by Backends wired to the jobs
// admission subsystem (node.Node is). AdmitJobTask decides one submission
// against the job's record and quotas, returning nil or one of the typed
// errors above.
type JobGate interface {
	AdmitJobTask(job types.JobID) error
}

// admitJob validates a tenanted submission. Backends with a JobGate get
// full quota admission; others fall back to record-existence and
// termination checks against the control plane directly (quotas need the
// gate's cached cluster scans to be affordable per-submit).
func (c *caller) admitJob(job types.JobID) error {
	if gate, ok := c.backend.(JobGate); ok {
		return gate.AdmitJobTask(job)
	}
	info, ok := c.backend.Control().GetJob(job)
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobNotFound, job)
	}
	if info.State != types.JobRunning {
		return fmt.Errorf("%w: %s is %s", ErrJobTerminated, job, info.State)
	}
	return nil
}

// isJobStoppedPayload matches the exact shape the reclaim pass stores for
// buried tenant tasks — reason prefix plus a short job ID — so an
// application error that merely starts with the prefix text is not
// misclassified as a job stop.
func isJobStoppedPayload(msg string) bool {
	return hasReason(msg, types.ReasonJobStopped, "job-")
}

// Job is the driver's handle to a tenant job.
type Job struct {
	ID   types.JobID
	spec types.JobSpec
	cl   *Client
}

// CreateJob registers a job record with the control plane and returns its
// handle. weight sets the job's fair-share dispatch weight (0 selects 1);
// quota sets its admission ceilings (zero fields unlimited).
func (cl *Client) CreateJob(name string, weight int, quota types.JobQuota) (*Job, error) {
	var id types.JobID
	if _, err := rand.Read(id[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	spec := types.JobSpec{ID: id, Name: name, Weight: weight, Quota: quota}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !cl.backend.Control().CreateJob(spec) {
		// The ID is freshly random, so a duplicate means the control plane
		// could not be reached (or a pathological collision); either way
		// the job's existence is unconfirmed.
		if _, ok := cl.backend.Control().GetJob(id); !ok {
			return nil, fmt.Errorf("core: create job: control plane unavailable")
		}
	}
	return &Job{ID: id, spec: spec, cl: cl}, nil
}

// StopJob requests the job's termination: submissions are fenced
// immediately, and the global scheduler's reclaim pass fails its live
// tasks, drops its object references, and (after a grace period)
// tombstones its records. Idempotent: stopping an already-stopping or
// stopped job succeeds.
func (cl *Client) StopJob(id types.JobID) error {
	ctrl := cl.backend.Control()
	if ctrl.CASJobState(id, []types.JobState{types.JobRunning}, types.JobStopping) {
		return nil
	}
	info, ok := ctrl.GetJob(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	if info.State != types.JobRunning {
		return nil // already stopping or stopped
	}
	return fmt.Errorf("core: stop job %s: control plane did not confirm", id)
}

// GetJob reads a job record back.
func (cl *Client) GetJob(id types.JobID) (types.JobInfo, bool) {
	return cl.backend.Control().GetJob(id)
}

// Jobs lists every job record.
func (cl *Client) Jobs() []types.JobInfo {
	return cl.backend.Control().Jobs()
}

// Option returns the submission option attributing a task to this job.
func (j *Job) Option() Option { return WithJob(j.ID) }

// Stop stops the job (see Client.StopJob).
func (j *Job) Stop() error { return j.cl.StopJob(j.ID) }
