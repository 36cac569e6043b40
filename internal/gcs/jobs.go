package gcs

import (
	"slices"

	"repro/internal/codec"
	"repro/internal/types"
)

// Job table (DESIGN.md §14): a typed table like every other, so on a
// sharded deployment its records are WAL'd and snapshotted with the shard
// that owns them. The Purged record is deliberately never deleted — it is
// the tombstone that fences replayed submissions after the job's task and
// object records have been purged.

// publishJob announces a job record on the job channel. next is a copy
// private to the caller, never the table's own record.
func (s *Store) publishJob(next *types.JobInfo, kind string) {
	s.db.Publish(chanJobs, codec.MustEncode(next))
	s.logEvent(types.Event{Kind: kind, Detail: next.Spec.ID.String()})
}

// CreateJob implements API: exactly-once insertion keyed by job ID. A
// duplicate create (client retry after a crash suppressed the ack) returns
// false with the original record intact.
func (s *Store) CreateJob(spec types.JobSpec) bool {
	now := s.NowNs()
	info := types.JobInfo{Spec: spec, State: types.JobRunning, CreatedNs: now, LastTransitionNs: now}
	created, _ := s.jobs.mutate(spec.ID, upsert, func(rec *types.JobInfo, exists bool) bool {
		if !exists {
			*rec = info
		}
		return !exists
	})
	if created {
		s.db.Publish(chanJobs, codec.MustEncode(&info))
		s.logEvent(types.Event{Kind: "job-create", Detail: spec.ID.String() + " " + spec.Name})
	}
	return created
}

// GetJob implements API.
func (s *Store) GetJob(id types.JobID) (types.JobInfo, bool) { return s.jobs.get(id) }

// Jobs implements API (inspection scan; the reclaim pass sweeps it, so a
// job whose stop event was dropped is still reclaimed eventually).
func (s *Store) Jobs() []types.JobInfo { return s.jobs.collect(nil) }

// CASJobState implements API.
func (s *Store) CASJobState(id types.JobID, from []types.JobState, to types.JobState) bool {
	return s.CASJobStateOp(id, from, to, 0)
}

// CASJobStateOp is CASJobState with an idempotency token (0 = no dedup),
// mirroring ClaimTaskOp: a retried CAS whose original commit survived a
// shard crash is recognized by its token in the record's durable MutOps
// ring and reported won, so the caller (a StopJob retry, the reclaim pass's
// Stopping→Stopped or Stopped→Purged commit) proceeds instead of treating
// its own earlier commit as a lost race.
func (s *Store) CASJobStateOp(id types.JobID, from []types.JobState, to types.JobState, op uint64) bool {
	now := s.NowNs()
	dup := false
	var next types.JobInfo
	won, _ := s.jobs.mutate(id, existing, func(info *types.JobInfo, _ bool) bool {
		if info.MutOps.Seen(op) {
			dup = true // this exact CAS already applied
			return false
		}
		if info.State == types.JobPurged || !slices.Contains(from, info.State) {
			return false // Purged is final: PurgedNs is stamped once
		}
		info.MutOps.Record(op, refOpHistory)
		info.State = to
		info.LastTransitionNs = now
		switch to {
		case types.JobStopping:
			info.StoppingNs = now
		case types.JobStopped:
			info.StoppedNs = now
		case types.JobPurged:
			info.PurgedNs = now
		case types.JobRunning:
			// Rollback (operator abort of a stop that has not buried
			// anything yet): the stop never happened.
			info.StoppingNs = 0
		}
		next = info.Clone()
		return true
	})
	if won {
		s.publishJob(&next, "job-cas:"+to.String())
	}
	return won || dup
}

// ForceReleaseObjects implements API: the job-stop reclaim hammer. Each
// object's count is forced to zero and its Holders attribution dropped, as
// if every holder's release had flushed; objects with live copies become
// GC-eligible (EverRetained is set so even never-retained outputs are
// reclaimed — the job is gone, nobody can ever reference them again). The
// in-process store cannot fail partially, so the failed set is always nil.
func (s *Store) ForceReleaseObjects(ids []types.ObjectID) []types.ObjectID {
	for _, id := range ids {
		s.forceReleaseObject(id)
	}
	return nil
}

// forceReleaseObject is one object's share of a force release. Idempotent:
// an already-zeroed object only refires the (crash-droppable) GC publish if
// its copies have not drained yet.
func (s *Store) forceReleaseObject(id types.ObjectID) {
	gc := false
	s.objects.mutate(id, existing, func(info *types.ObjectInfo, _ bool) bool {
		gc = len(info.Locations) > 0
		if info.RefCount == 0 && len(info.Holders) == 0 && info.EverRetained {
			return false // already released; just redo the side effects
		}
		info.RefCount = 0
		info.Holders = nil
		info.EverRetained = true
		return true
	})
	if gc {
		s.publishGC(id, "job-force-release", types.NodeID{})
	}
}

// PurgeObjects is retire's object removal: the dead records among ids
// (types.ObjectInfo.Dead) go, and the rest come back for retry. A record
// still holding copies, references or lineage pins is skipped — the force
// release and the lifetime GC it triggers must drain it first, and a pin
// goes with the task record that holds it. On a durable shard the delete is
// WAL'd, so the record stays gone across restarts.
func (s *Store) PurgeObjects(ids []types.ObjectID) []types.ObjectID {
	var remaining []types.ObjectID
	for _, id := range ids {
		rekick := false
		if s.objects.remove(id, func(info *types.ObjectInfo) bool {
			// Not drained yet: retry after GC catches up, re-kicking the GC
			// publish — the original event is crash-droppable, and after
			// the job commits Stopped nothing else refires it.
			rekick = info.RefCount == 0 && len(info.Locations) != 0
			return info.Dead()
		}) {
			continue
		}
		if rekick {
			s.db.Publish(chanObjGC, id[:])
		}
		remaining = append(remaining, id)
	}
	return remaining
}

// PurgeTasks implements API: remove the terminal records among ids, then
// drop the pins they held.
func (s *Store) PurgeTasks(ids []types.TaskID) (args []types.ObjectID, left []types.TaskID) {
	args, left = s.purgeTasks(ids)
	s.pinObjects(unpinning(args), 0) // no token: nothing redelivers it
	return args, left
}

// purgeTasks is PurgeTasks on this store's task table alone: what a removed
// record pinned comes back in args, once per (record, argument), for the
// caller to unpin — in a sharded control plane the objects' records live
// on other shards.
func (s *Store) purgeTasks(ids []types.TaskID) (args []types.ObjectID, left []types.TaskID) {
	for _, id := range ids {
		if !s.tasks.remove(id, func(st *types.TaskState) bool {
			if !st.Status.Terminal() {
				return false
			}
			args = append(args, st.Spec.DistinctDeps()...)
			return true
		}) {
			left = append(left, id)
		}
	}
	return args, left
}
