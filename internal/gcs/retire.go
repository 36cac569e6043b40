package gcs

import (
	"bytes"
	"slices"

	"repro/internal/types"
)

// Record lifetime (DESIGN.md §17). A task's record and the records of its
// return objects are lineage only while something can still ask for those
// objects. They are retired — removed from the tables, journaled as deletes
// on a durable shard — once the task is terminal in the table and every
// return object is dead (types.ObjectInfo.Dead: referenced once, no
// reference, no copy, and no surviving task record that takes it by
// reference). The policy is written once, here, over four per-record
// operations; Store runs them on its tables and Sharded as keyed calls.

// Retired reports one Retire call.
type Retired struct {
	// Tasks and Objects count the records the call removed.
	Tasks, Objects int
	// Referenced, Located and Pinned count the proposed objects that stay,
	// by the first thing found holding them: a reference (or never having
	// had one), a copy, a task record that takes the object by reference.
	// Objects the call reached by following unpinned arguments are not
	// counted: nobody proposed them.
	Referenced, Located, Pinned int
	// Again lists the proposed objects about which nothing could be
	// concluded yet: the producer is not terminal in the task table (its
	// last delta is still on its way), or a shard did not answer. Worth
	// proposing once more.
	Again []types.ObjectID
}

// lookup is what reading one record came back with. A shard that does not
// answer reads as neither: nothing may be concluded about its records.
type lookup int

const (
	found lookup = iota
	absent
	unreachable
)

// hold is the first thing found keeping an object's record.
type hold int

const (
	holdNone hold = iota
	holdReferenced
	holdLocated
	holdPinned
	// holdUnproduced: no producer edge and no bytes yet — a record a
	// reference flush created ahead of its producer's birth, or recreated
	// after a retire. Not a Put (born with its copy), so not for this call.
	holdUnproduced
)

// objectFacts and taskFacts are what the policy reads of a record (plain
// data: a shard answers a whole batch of them in one message).
type objectFacts struct {
	Look     lookup
	Producer types.TaskID
	Hold     hold
}

type taskFacts struct {
	Look     lookup
	Terminal bool
	Returns  int
}

// objectFactsOf reads o: dead (types.ObjectInfo.Dead), or held by the first
// of Dead's conditions it fails.
func objectFactsOf(o *types.ObjectInfo) objectFacts {
	f := objectFacts{Producer: o.Producer}
	switch {
	case o.Dead():
		if o.Producer.IsNil() && o.State == types.ObjectPending {
			f.Hold = holdUnproduced
		}
	case o.RefCount > 0 || !o.EverRetained:
		// An object nobody ever retained is not garbage: it predates the
		// lifetime subsystem's accounting and lives until evicted.
		f.Hold = holdReferenced
	case len(o.Locations) > 0:
		f.Hold = holdLocated
	default:
		f.Hold = holdPinned
	}
	return f
}

// hasProducer reports whether o is a dead object whose producer's record is
// the next thing to read.
func (o objectFacts) hasProducer() bool {
	return o.Look == found && o.Hold == holdNone && !o.Producer.IsNil()
}

func taskFactsOf(t *types.TaskState) taskFacts {
	return taskFacts{Terminal: t.Status.Terminal(), Returns: t.Spec.NumReturns}
}

// retireOps is what the policy needs of a control plane: Store and Sharded
// have it. The reads answer in the order asked.
type retireOps interface {
	PurgeTasks(ids []types.TaskID) (args []types.ObjectID, left []types.TaskID)
	objectFacts(ids []types.ObjectID) []objectFacts
	taskFacts(ids []types.TaskID) []taskFacts
	PurgeObjects(ids []types.ObjectID) []types.ObjectID
}

// retiree is one return object of a task found retirable.
type retiree struct {
	task   types.TaskID
	object types.ObjectID
}

// retire is the record-lifetime policy. Each round examines a set of
// objects and removes the producers whose every return is dead — the task
// record first, which drops the pins it held (PurgeTasks), then its
// objects' records, so a call cut short between the two leaves a dead
// object record that the next proposal of it removes. The unpinned
// arguments are the next round, so a released chain goes in one call,
// consumer before producer, and an object still held keeps every record
// behind it.
func retire(c retireOps, proposed []types.ObjectID) (r Retired) {
	work, first := proposed, true
	for len(work) > 0 {
		objs := c.objectFacts(work)
		var producers []types.TaskID // of the dead objects that have one, in work's order
		for _, o := range objs {
			if o.hasProducer() {
				producers = append(producers, o.Producer)
			}
		}
		tasks := c.taskFacts(producers)
		var (
			rets  []retiree
			loose []types.ObjectID // dead, and nobody's return: Puts, and what a cut-short call left
		)
		for i, id := range work {
			o, t := objs[i], taskFacts{}
			if o.hasProducer() {
				t, tasks = tasks[0], tasks[1:]
				switch t.Look {
				case absent:
					// The producer went in a call that did not get to this
					// record: the record is all that is left of it.
					o.Producer = types.NilTaskID
				case unreachable:
					o.Look = unreachable
				}
			}
			switch {
			case o.Look == unreachable:
				if first {
					r.Again = append(r.Again, id)
				}
			case o.Look == absent: // retired already, or never recorded
			case o.Hold != holdNone:
				if first {
					r.refused(o.Hold)
				}
			case o.Producer.IsNil():
				loose = append(loose, id)
			case !t.Terminal:
				if first {
					r.Again = append(r.Again, id)
				}
			case t.Returns > 1:
				rets = r.withReturns(c, rets, retiree{o.Producer, id}, t.Returns, first)
			default:
				rets = append(rets, retiree{o.Producer, id})
			}
		}
		var args []types.ObjectID
		objects := loose
		if len(rets) > 0 {
			purge := make([]types.TaskID, 0, len(rets))
			for _, e := range rets {
				if n := len(purge); n == 0 || purge[n-1] != e.task {
					purge = append(purge, e.task)
				}
			}
			var left []types.TaskID
			args, left = c.PurgeTasks(purge)
			r.Tasks += len(purge) - len(left)
			for _, e := range rets {
				if !slices.Contains(left, e.task) {
					objects = append(objects, e.object)
				}
			}
		}
		if len(objects) > 0 {
			r.Objects += len(objects) - len(c.PurgeObjects(objects))
		}
		if len(args) == 0 {
			break
		}
		// Several removed tasks may have taken the same object; a proposed
		// one named twice only has its second removal find nothing.
		work, first = distinctObjects(args), false
	}
	return r
}

// withReturns adds e — a dead return of a terminal task with several — and
// the task's other returns to rets, if those are dead too. Otherwise the
// task stays, and so does every record of it.
func (r *Retired) withReturns(c retireOps, rets []retiree, e retiree, returns int, proposed bool) []retiree {
	sibs := make([]types.ObjectID, 0, returns-1)
	for i := 0; i < returns; i++ {
		if sib := types.ObjectIDForReturn(e.task, i); sib != e.object {
			sibs = append(sibs, sib)
		}
	}
	mark := len(rets)
	rets = append(rets, e)
	for i, o := range c.objectFacts(sibs) {
		switch {
		case o.Look == absent:
		case o.Look == found && o.Hold == holdNone:
			rets = append(rets, retiree{e.task, sibs[i]})
		default:
			if o.Look == found && proposed {
				r.refused(o.Hold)
			}
			return rets[:mark]
		}
	}
	return rets
}

func (r *Retired) refused(h hold) {
	switch h {
	case holdReferenced:
		r.Referenced++
	case holdLocated:
		r.Located++
	case holdPinned:
		r.Pinned++
	}
}

func distinctObjects(ids []types.ObjectID) []types.ObjectID {
	slices.SortFunc(ids, func(a, b types.ObjectID) int { return bytes.Compare(a[:], b[:]) })
	return slices.Compact(ids)
}

// unpinning is the pin delta that removing task records owes: one less per
// (record, argument) pair.
func unpinning(args []types.ObjectID) map[types.ObjectID]int64 {
	deltas := make(map[types.ObjectID]int64, len(args))
	for _, a := range args {
		deltas[a]--
	}
	return deltas
}
