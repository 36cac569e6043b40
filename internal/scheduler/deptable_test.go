package scheduler

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// subCounter is a control plane that counts object-ready subscriptions,
// each one resolver's, and how many of them were closed.
type subCounter struct {
	*gcs.Store
	ready, closed atomic.Int64
}

func (c *subCounter) Subscribe(topic gcs.Topic, id [types.IDSize]byte) gcs.Sub {
	sub := c.Store.Subscribe(topic, id)
	if topic != gcs.TopicObjectReady {
		return sub
	}
	c.ready.Add(1)
	return closeCounter{Sub: sub, closed: &c.closed}
}

type closeCounter struct {
	gcs.Sub
	closed *atomic.Int64
}

func (s closeCounter) Close() {
	s.closed.Add(1)
	s.Sub.Close()
}

// blockingFetcher is a Fetcher whose pulls never finish on their own: each
// blocks until its context is cancelled.
type blockingFetcher struct {
	started, cancelled atomic.Int64
}

func (f *blockingFetcher) FetchObject(ctx context.Context, _ types.ObjectInfo) error {
	f.started.Add(1)
	<-ctx.Done()
	f.cancelled.Add(1)
	return ctx.Err()
}

// TestDepTableBudget: parked tasks wait per object, not per (task,
// dependency). However many tasks park on one missing object, it has one
// resolver — one subscription and one goroutine, plus the in-process
// subscription's pump — and k distinct missing objects have k. Evicting the
// parked tasks, by any of the three paths that do, or landing the objects
// all at once leaves no resolver behind.
//
// The "while fetching" cases park the same tasks on objects ready on another
// node, whose pulls never finish: each row's resolver starts one pull and
// needs no subscription for it. Evicting the tasks cancels every pull a row
// started, and no pull starts afterwards.
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
		for _, fetching := range []bool{false, true} {
			name := end.name
			if fetching {
				name += " while fetching"
			}
			t.Run(name, func(t *testing.T) {
				l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
				counting := &subCounter{Store: ctrl}
				l.cfg.Ctrl = counting
				fetcher := &blockingFetcher{}
				l.cfg.Fetcher = fetcher
				if !l.ReserveBundle(group, 0, types.CPU(1)) {
					t.Fatal("reserve failed")
				}
				missing := func(i uint64) types.ObjectID {
					producer := types.DeriveTaskID(types.NilTaskID, 6100+i)
					id := types.ObjectIDForReturn(producer, 0)
					ctrl.EnsureObject(id, producer)
					if fetching {
						ctrl.AddObjectLocation(id, tNode(2), 1)
					}
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
				// Resolvers subscribe, or start their pull, on their own
				// goroutines: wait for the ones due to have, then count.
				started := func() int64 { return counting.ready.Load() + fetcher.started.Load() }
				await := func(what string, cond func() bool) {
					t.Helper()
					for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("never %s: %d subscriptions, %d pulls, %d goroutines over baseline",
								what, counting.ready.Load(), fetcher.started.Load(), rise())
						}
					}
				}
				// A row waiting on a pending object costs its resolver and the
				// subscription's pump; one pulling costs the resolver alone.
				perRow := 2
				if fetching {
					perRow = 1
				}

				shared := missing(0)
				for i := 0; i < fanIn; i++ {
					park(uint64(i), shared)
				}
				await("started", func() bool { return started() >= 1 })
				if n := started(); n != 1 {
					t.Fatalf("%d tasks parked on one object opened %d subscriptions and pulls, want 1", fanIn, n)
				}
				if n := rise(); n > perRow {
					t.Fatalf("%d tasks parked on one object cost %d goroutines, want ≤ %d", fanIn, n, perRow)
				}

				var distinct []types.ObjectID
				for i := 1; i <= k; i++ {
					distinct = append(distinct, missing(uint64(i)))
				}
				park(fanIn, distinct...)
				await("started", func() bool { return started() >= 1+k })
				if n := rise(); n > perRow*(1+k) {
					t.Fatalf("one task parked on %d objects raised goroutines by %d, want ≤ %d", k, n, perRow*(1+k))
				}
				if l.WaitingLen() != fanIn+1 {
					t.Fatalf("waiting = %d, want %d", l.WaitingLen(), fanIn+1)
				}
				if fetching && counting.ready.Load() != 0 {
					t.Fatalf("resolvers pulling ready objects opened %d subscriptions, want 0", counting.ready.Load())
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
				// are asynchronous. The table's own count of resolvers and the
				// closed subscriptions say its goroutines are gone. The process
				// may hold no more than that beyond the executors that ran the
				// tasks, which stay parked for the next ones: they are the
				// executor pool's (its scheduler.executors.idle gauge).
				await("back to the baseline", func() bool {
					return l.deps.resolvers.Load() == 0 && counting.closed.Load() == counting.ready.Load() &&
						int64(rise()) <= l.execs.parked()
				})
				if n, c := fetcher.started.Load(), fetcher.cancelled.Load(); c != n {
					t.Fatalf("%d of %d pulls saw their context cancelled", c, n)
				}
				pulls := fetcher.started.Load()
				time.Sleep(3 * pollPeriod)
				if n := fetcher.started.Load(); n != pulls {
					t.Fatalf("%d pulls started after the rows went", n-pulls)
				}
			})
		}
	}
}

// gatedRefs is a RefLedger whose first Flush blocks until the test opens
// the gate: the window in which enqueue has parked a task and not yet
// stamped it QUEUED.
type gatedRefs struct {
	flushes       atomic.Int64
	entered, gate chan struct{}
}

func (r *gatedRefs) Retain(...types.ObjectID)  {}
func (r *gatedRefs) Release(...types.ObjectID) {}
func (r *gatedRefs) Flush() bool {
	if r.flushes.Add(1) == 1 {
		close(r.entered)
		<-r.gate
	}
	return true
}

// spillLog is a control plane that records the tasks published to the
// global spill queue.
type spillLog struct {
	*gcs.Store
	mu      sync.Mutex
	spilled []types.TaskID
}

func (c *spillLog) PublishSpill(spec types.TaskSpec) {
	c.mu.Lock()
	c.spilled = append(c.spilled, spec.ID)
	c.mu.Unlock()
	c.Store.PublishSpill(spec)
}

// TestEvictBeforeQueuedStamp: enqueue parks a task before its borrow flush
// and stamps it QUEUED only after, so an eviction inside that window finds
// a task born here still PENDING in the task table. Respilling it must
// still publish it, or nothing would ever place it again.
func TestEvictBeforeQueuedStamp(t *testing.T) {
	group := tGroup(62)
	for _, evict := range []struct {
		name string
		run  func(l *Local)
	}{
		{"DrainBacklog", func(l *Local) { l.DrainBacklog() }},
		{"ReleaseGroup", func(l *Local) { l.ReleaseGroup(group, false) }},
	} {
		t.Run(evict.name, func(t *testing.T) {
			l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
			spills := &spillLog{Store: ctrl}
			l.cfg.Ctrl = spills
			refs := &gatedRefs{entered: make(chan struct{}), gate: make(chan struct{})}
			l.cfg.Refs = refs
			if !l.ReserveBundle(group, 0, types.CPU(1)) {
				t.Fatal("reserve failed")
			}
			producer := types.DeriveTaskID(types.NilTaskID, 6500)
			dep := types.ObjectIDForReturn(producer, 0)
			ctrl.EnsureObject(dep, producer)
			spec := tSpec(6501, nil, dep)
			spec.Group, spec.Bundle = group, 0

			submitted := make(chan error, 1)
			go func() { submitted <- l.Submit(spec, false) }()
			<-refs.entered
			evict.run(l)
			close(refs.gate)
			if err := <-submitted; err != nil {
				t.Fatal(err)
			}

			spills.mu.Lock()
			published := append([]types.TaskID(nil), spills.spilled...)
			spills.mu.Unlock()
			if len(published) != 1 || published[0] != spec.ID {
				t.Fatalf("published to the spill queue: %v, want just %v", published, spec.ID)
			}
			if st, ok := ctrl.GetTask(spec.ID); !ok || st.Status != types.TaskPending {
				t.Fatalf("task record after the respill = %+v (ok=%v), want PENDING", st.Status, ok)
			}
			if n := l.Busy(); n != 0 {
				t.Fatalf("Busy = %d after the eviction, want 0", n)
			}
			log.mu.Lock()
			ran := len(log.seen)
			log.mu.Unlock()
			if ran != 0 {
				t.Fatalf("%d evicted tasks ran here", ran)
			}
		})
	}
}

// deadlineFetcher is a Fetcher that records how long its context had left,
// then stores the object as a pull would.
type deadlineFetcher struct {
	l    *Local
	left chan time.Duration
}

func (f *deadlineFetcher) FetchObject(ctx context.Context, info types.ObjectInfo) error {
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Now()
	}
	f.left <- time.Until(dl)
	return f.l.cfg.Store.Put(info.ID, []byte("d"))
}

// TestResolveFetchBound: the resolve loop bounds one pull by fetchTimeout,
// for a Get and for a parked dependency alike. A tighter bound restarts a
// long pull from its first byte on every lap, so it never finishes.
func TestResolveFetchBound(t *testing.T) {
	l, log, ctrl, _ := buildLocal(t, types.CPU(2), SpillNever)
	fetcher := &deadlineFetcher{l: l, left: make(chan time.Duration, 2)}
	l.cfg.Fetcher = fetcher
	remote := func(i uint64) types.ObjectID {
		id := types.PutObjectID(types.NilTaskID, 6300+i)
		ctrl.AddObjectLocation(id, tNode(2), 1)
		return id
	}
	check := func(who string) {
		t.Helper()
		if left := <-fetcher.left; left < fetchTimeout-time.Second || left > fetchTimeout {
			t.Fatalf("%s: the pull had %v left, want %v", who, left, fetchTimeout)
		}
	}

	if _, err := l.Resolve(context.Background(), remote(0), types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	check("a Get")

	spec := tSpec(6400, nil, remote(1))
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	check("a parked dependency")
	waitExec(t, log, spec.ID)
}
