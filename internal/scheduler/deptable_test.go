package scheduler

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// subCounter is a control plane that counts object-ready subscriptions:
// each is one resolver.
type subCounter struct {
	*gcs.Store
	ready atomic.Int64
}

func (c *subCounter) Subscribe(topic gcs.Topic, id [types.IDSize]byte) gcs.Sub {
	if topic == gcs.TopicObjectReady {
		c.ready.Add(1)
	}
	return c.Store.Subscribe(topic, id)
}

// TestDepTableBudget: parked tasks wait per object, not per (task,
// dependency). However many tasks park on one missing object, it has one
// resolver — one subscription and one goroutine, plus the in-process
// subscription's pump — and k distinct missing objects have k. Evicting the
// parked tasks, by any of the three paths that do, or landing the objects
// all at once leaves no resolver behind.
func TestDepTableBudget(t *testing.T) {
	const fanIn, k = 64, 8
	group := tGroup(61)
	for _, end := range []struct {
		name string
		ran  int // parked tasks that run
		run  func(l *Local, objs []types.ObjectID)
	}{
		{"Stop", 0, func(l *Local, _ []types.ObjectID) { l.Stop() }},
		{"DrainBacklog", 0, func(l *Local, _ []types.ObjectID) { l.DrainBacklog() }},
		{"ReleaseGroup", 0, func(l *Local, _ []types.ObjectID) { l.ReleaseGroup(group, true) }},
		{"objects land", fanIn + 1, func(l *Local, objs []types.ObjectID) {
			var wg sync.WaitGroup
			for _, id := range objs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := l.cfg.Store.Put(id, []byte("d")); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}},
	} {
		t.Run(end.name, func(t *testing.T) {
			l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
			counting := &subCounter{Store: ctrl}
			l.cfg.Ctrl = counting
			if !l.ReserveBundle(group, 0, types.CPU(1)) {
				t.Fatal("reserve failed")
			}
			pending := func(i uint64) types.ObjectID {
				producer := types.DeriveTaskID(types.NilTaskID, 6100+i)
				id := types.ObjectIDForReturn(producer, 0)
				ctrl.EnsureObject(id, producer)
				return id
			}
			park := func(i uint64, deps ...types.ObjectID) {
				spec := tSpec(6200+i, nil, deps...)
				spec.Group, spec.Bundle = group, 0
				if err := l.Submit(spec, false); err != nil {
					t.Fatal(err)
				}
			}
			baseline := runtime.NumGoroutine()
			rise := func() int { return runtime.NumGoroutine() - baseline }
			// Resolvers subscribe on their own goroutines: wait for the ones
			// due to have, then count.
			await := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("never %s: %d subscriptions, %d goroutines over baseline", what, counting.ready.Load(), rise())
					}
				}
			}

			shared := pending(0)
			for i := 0; i < fanIn; i++ {
				park(uint64(i), shared)
			}
			await("subscribed", func() bool { return counting.ready.Load() >= 1 })
			if n := counting.ready.Load(); n != 1 {
				t.Fatalf("%d tasks parked on one object opened %d subscriptions, want 1", fanIn, n)
			}
			if n := rise(); n > 2 {
				t.Fatalf("%d tasks parked on one object cost %d goroutines, want ≤ 2", fanIn, n)
			}

			var distinct []types.ObjectID
			for i := 1; i <= k; i++ {
				distinct = append(distinct, pending(uint64(i)))
			}
			park(fanIn, distinct...)
			await("subscribed", func() bool { return counting.ready.Load() >= 1+k })
			if n := rise(); n > 2*(1+k) {
				t.Fatalf("one task parked on %d objects started %d goroutines, want ≤ %d resolvers and their pumps", k, n-2, k)
			}
			if l.WaitingLen() != fanIn+1 {
				t.Fatalf("waiting = %d, want %d", l.WaitingLen(), fanIn+1)
			}

			end.run(l, append(distinct, shared))
			await("drained", func() bool { return l.Busy() == 0 })
			log.mu.Lock()
			ran := len(log.seen)
			log.mu.Unlock()
			if ran != end.ran {
				t.Fatalf("%d parked tasks ran, want %d", ran, end.ran)
			}
			// The resolvers were cancelled or found their object; their exits
			// are asynchronous.
			await("back to the baseline", func() bool { return rise() <= 0 })
		})
	}
}
