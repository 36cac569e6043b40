package scheduler

import (
	"context"
	"runtime"
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
// dependency table for the runnable queue is never in neither. Each evictor
// must settle some rounds, or the race was never run. A reclaimed round
// waits out types.RetiredAfter before its race, so it runs fewer rounds,
// set up a batch at a time: the batch waits out the bound together, and
// its races run one by one.
func TestEvictionRacesLanding(t *testing.T) {
	for _, c := range []struct {
		evictor       string
		rounds, batch uint64
	}{{"Stop", 1000, 1}, {"DrainBacklog", 1000, 1}, {"ReleaseGroup", 1000, 1}, {"reclaimed", 128, 32}} {
		t.Run(c.evictor, func(t *testing.T) {
			settled := 0
			for i := uint64(0); i < c.rounds && !t.Failed(); i += c.batch {
				var races []func() bool
				for round := i; round < min(i+c.batch, c.rounds); round++ {
					races = append(races, raceEviction(t, c.evictor, round, c.rounds))
				}
				for _, race := range races {
					if race() {
						settled++
					}
				}
			}
			t.Logf("%d of %d rounds settled by the evictor", settled, c.rounds)
			if settled == 0 && !t.Failed() {
				t.Fatalf("no round of %d was settled by the evictor", c.rounds)
			}
		})
	}
}

// raceEviction sets up one round of rounds, up to the parked task, and
// returns its race, which reports whether the evictor settled the task.
func raceEviction(t *testing.T, evictor string, round, rounds uint64) func() bool {
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
	// The reclaimed evictor is the dependency's resolver. It probes a lost
	// object at once and then every poll period, and fails the parked task
	// once every probe for types.RetiredAfter has found the object
	// reclaimed. The stub answers at once until that absence is older than
	// the bound, then holds the probe, the one that ends the resolve, until
	// the race lets it go. The resolver dates the absence just after the
	// first answer, so it reads the bound passed once the hold outlasts
	// that gap.
	var probed, probe chan struct{}
	if evictor == "reclaimed" {
		ctrl.AddObjectLocation(dep, tNode(2), 1)
		ctrl.RemoveObjectLocation(dep, tNode(2))
		probed, probe = make(chan struct{}), make(chan struct{})
		var first time.Time
		var last sync.Once
		cfg.Recon = func(types.ObjectID, types.TaskID) error {
			if first.IsZero() {
				first = time.Now()
			}
			if time.Since(first) > types.RetiredAfter {
				last.Do(func() {
					close(probed)
					<-probe
				})
			}
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
	if _, err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}

	return func() bool {
		t.Helper()
		// A reclaimed round's task waits out the bound parked here before its
		// race starts.
		if probed != nil {
			<-probed
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
		var drained int
		start := make(chan struct{})
		var racers sync.WaitGroup
		racers.Add(2)
		// Rounds stagger the evictor by 0–126 µs, so it meets the landing at
		// every stage, from before the Put to after the dispatch. The reclaimed
		// evictor has a goroutine to wake (the resolver) before it acts, so
		// every other one of its rounds staggers the Put instead.
		putLag, evictLag := time.Duration(0), time.Duration(round*64/rounds)*2*time.Microsecond
		if evictor == "reclaimed" && round%2 == 0 {
			putLag, evictLag = evictLag, 0
		}
		// A lag yields while it lasts: two spinning racers and the Busy poller
		// would hold both processors of a 2-vCPU host and keep the resolver the
		// reclaimed evictor wakes from running until the Put is done.
		spin := func(d time.Duration) {
			for t0 := time.Now(); time.Since(t0) < d; {
				runtime.Gosched()
			}
		}
		go func() {
			defer racers.Done()
			<-start
			spin(putLag)
			if err := store.Put(dep, []byte("d")); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer racers.Done()
			<-start
			spin(evictLag)
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
		return ran == 0 && settled
	}
}
