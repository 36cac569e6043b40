package scheduler

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// countingRefs is a RefLedger that counts the borrows taken and returned.
type countingRefs struct{ retained, released atomic.Int64 }

func (r *countingRefs) Retain(ids ...types.ObjectID)  { r.retained.Add(int64(len(ids))) }
func (r *countingRefs) Release(ids ...types.ObjectID) { r.released.Add(int64(len(ids))) }
func (r *countingRefs) Flush() bool                   { return true }

// outcomeLog is a control plane that counts the ways a task can leave this
// node without running: published to the spill queue, or claimed FAILED.
type outcomeLog struct {
	*gcs.Store
	spilled, failed atomic.Int64
}

func (c *outcomeLog) PublishSpill(spec types.TaskSpec) {
	c.spilled.Add(1)
	c.Store.PublishSpill(spec)
}

func (c *outcomeLog) ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool) {
	seq, ok := c.Store.ClaimTask(id, from, to, owner)
	if ok && to == types.TaskFailed {
		c.failed.Add(1)
	}
	return seq, ok
}

// TestEvictionRacesLanding: every evictor of a parked task races the Put of
// its last dependency. Whichever wins, the task ends in exactly one way: it
// runs once, or the evictor settles it, and never both. Every borrow taken
// for it is returned, its spill bridge's included. Busy, polled throughout,
// reads 0 only once the task has run or been settled: a task leaving the
// dependency table for the runnable queue is never in neither.
func TestEvictionRacesLanding(t *testing.T) {
	const rounds = 1000
	for _, evictor := range []string{"Stop", "DrainBacklog", "ReleaseGroup", "reclaimed"} {
		t.Run(evictor, func(t *testing.T) {
			for i := uint64(0); i < rounds && !t.Failed(); i++ {
				raceEviction(t, evictor, i)
			}
		})
	}
}

func raceEviction(t *testing.T, evictor string, round uint64) {
	t.Helper()
	nid := tNode(1)
	ctrl := gcs.NewStore(1)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(2)})
	store := objectstore.New(nid, ctrl, 0)
	out := &outcomeLog{Store: ctrl}
	refs := &countingRefs{}
	cfg := LocalConfig{Node: nid, Total: types.CPU(2), Ctrl: out, Store: store,
		Ledger: ledgertest.New(ctrl, nid), Refs: refs, SpillThreshold: SpillNever}
	producer := types.DeriveTaskID(types.NilTaskID, 6600+round)
	dep := types.ObjectIDForReturn(producer, 0)
	ctrl.EnsureObject(dep, producer)
	// The reclaimed evictor is the dependency's resolver: a lost object is
	// probed at once, and the probe, let go when the race starts, finds the
	// object reclaimed. The resolver probes again while the absence lasts
	// (a poll period later, when the Put is that late), so only the first
	// probe signals.
	var probed, probe chan struct{}
	if evictor == "reclaimed" {
		ctrl.AddObjectLocation(dep, tNode(2), 1)
		ctrl.RemoveObjectLocation(dep, tNode(2))
		probed, probe = make(chan struct{}), make(chan struct{})
		var first sync.Once
		cfg.Recon = func(types.ObjectID, types.TaskID) error {
			first.Do(func() { close(probed) })
			<-probe
			return types.ErrReclaimed
		}
	}
	l := NewLocal(cfg)
	var runs atomic.Int64
	var ranSettled atomic.Bool
	l.SetExec(func(context.Context, types.TaskSpec, [][]byte) {
		runs.Add(1)
		if refs.released.Load() > 0 || out.spilled.Load() > 0 || out.failed.Load() > 0 {
			ranSettled.Store(true)
		}
	})
	l.Start()
	group := tGroup(63)
	spec := tSpec(6700+round, nil, dep)
	if evictor == "ReleaseGroup" {
		if !l.ReserveBundle(group, 0, types.CPU(1)) {
			t.Fatal("reserve failed")
		}
		spec.Group, spec.Bundle = group, 0
	}
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}

	// From here until the task has run or been settled, Busy must not read 0.
	var zeroBeforeRun atomic.Bool
	polling, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-polling:
				return
			default:
			}
			if l.Busy() == 0 && runs.Load() == 0 {
				zeroBeforeRun.Store(true)
			}
		}
	}()
	if probed != nil {
		<-probed
	}
	var drained int
	start := make(chan struct{})
	var racers sync.WaitGroup
	racers.Add(2)
	go func() {
		defer racers.Done()
		<-start
		if err := store.Put(dep, []byte("d")); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer racers.Done()
		<-start
		// Rounds stagger the evictor by 0–126 µs, so it meets the landing
		// at every stage, from before the Put to after the dispatch.
		for t0 := time.Now(); time.Since(t0) < time.Duration(round%64)*2*time.Microsecond; {
		}
		switch evictor {
		case "Stop":
			l.Stop()
		case "DrainBacklog":
			drained = l.DrainBacklog()
		case "ReleaseGroup":
			l.ReleaseGroup(group, true)
		case "reclaimed":
			close(probe)
		}
	}()
	close(start)
	racers.Wait()

	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: never %s: %d runs, %d spilled, %d failed, %d retained, %d released, Busy %d",
					round, what, runs.Load(), out.spilled.Load(), out.failed.Load(),
					refs.retained.Load(), refs.released.Load(), l.Busy())
			}
		}
	}
	// The landing's dispatch and the resolver's failure run on goroutines
	// of their own.
	await("settled", func() bool {
		return l.Busy() == 0 && runs.Load()+out.spilled.Load()+out.failed.Load() > 0 || evictor == "Stop"
	})
	close(polling)
	<-polled

	ran := runs.Load()
	var settled bool
	switch evictor {
	case "Stop":
		settled = ran == 0
	case "DrainBacklog":
		settled = drained == 1
		if n := out.spilled.Load(); n != int64(drained) {
			t.Fatalf("round %d: DrainBacklog handed off %d tasks and published %d", round, drained, n)
		}
	default:
		settled = out.failed.Load() == 1
		if n := out.spilled.Load(); n != 0 {
			t.Fatalf("round %d: a task the %s evictor fails was respilled %d times", round, evictor, n)
		}
	}
	switch {
	case ran > 1:
		t.Fatalf("round %d: the task ran %d times", round, ran)
	case ranSettled.Load():
		t.Fatalf("round %d: the task ran after it was settled", round)
	case ran == 1 && settled:
		t.Fatalf("round %d: the task ran and was settled", round)
	case ran == 0 && !settled:
		t.Fatalf("round %d: the task neither ran nor was settled", round)
	case zeroBeforeRun.Load() && !settled:
		t.Fatalf("round %d: Busy read 0 before the task ran", round)
	}
	if out.spilled.Load() == 1 {
		// Place the respilled task as a destination node would: its spill
		// bridge returns the borrow it holds.
		ctrl.ClaimTask(spec.ID, []types.TaskStatus{types.TaskPending}, types.TaskScheduled, tNode(2))
	}
	await("returned every borrow", func() bool { return refs.released.Load() == refs.retained.Load() })
	l.Stop()
}
