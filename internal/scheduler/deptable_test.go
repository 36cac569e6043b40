package scheduler

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// tableCtrl is a control plane that counts what a dependency table asks of
// it: watch calls and the objects they name, object-record reads, and
// subscriptions: to the node's ready feed, and to any other topic.
type tableCtrl struct {
	*gcs.Store
	watches, watched, reads atomic.Int64
	nodeSubs, otherSubs     atomic.Int64
}

func (c *tableCtrl) WatchObjects(node types.NodeID, ids []types.ObjectID) []gcs.ObjectWatch {
	c.watches.Add(1)
	c.watched.Add(int64(len(ids)))
	return c.Store.WatchObjects(node, ids)
}

func (c *tableCtrl) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	c.reads.Add(1)
	return c.Store.GetObject(id)
}

func (c *tableCtrl) Subscribe(topic gcs.Topic, id [types.IDSize]byte) gcs.Sub {
	if topic == gcs.TopicNodeReady {
		c.nodeSubs.Add(1)
	} else {
		c.otherSubs.Add(1)
	}
	return c.Store.Subscribe(topic, id)
}

// countedLocal is a started Local whose control plane counts what its
// dependency table asks of it, from Start on.
func countedLocal(t *testing.T) (*Local, *execLog, *tableCtrl, *objectstore.Store) {
	t.Helper()
	l, ctrl, store, led := unstartedLocal(t, types.CPU(2), SpillNever)
	counted := &tableCtrl{Store: ctrl}
	l.cfg.Ctrl = counted
	log := newExecLog()
	l.SetExec(log.exec(led, store))
	l.Start()
	return l, log, counted, store
}

// meteredLocal is an unstarted Local with a metrics registry, on a ledger
// whose clock the test sets.
func meteredLocal(t *testing.T, clock func() int64) (*Local, *metrics.Registry, *gcs.Store, *objectstore.Store, *lifetime.TaskLedger) {
	t.Helper()
	ctrl := gcs.NewStore(4)
	nid := tNode(1)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(2)})
	store := objectstore.New(nid, ctrl, 0)
	led := ledgertest.New(ctrl, nid)
	if clock != nil {
		led.SetClock(clock)
	}
	reg := metrics.NewRegistry()
	l := NewLocal(LocalConfig{Node: nid, Total: types.CPU(2), Ctrl: ctrl, Store: store, Ledger: led,
		SpillThreshold: SpillNever, Metrics: reg})
	t.Cleanup(l.Stop)
	return l, reg, ctrl, store, led
}

// pendingObject is a return of a task that has not run: its record names
// its producer and lists no copy.
func pendingObject(ctrl *gcs.Store, i uint64) types.ObjectID {
	producer := types.DeriveTaskID(types.NilTaskID, i)
	id := types.ObjectIDForReturn(producer, 0)
	ctrl.EnsureObject(id, producer)
	return id
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

// storingFetcher is a Fetcher that stores the object at once, as a pull
// would, and counts the pulls, and those handed a record with the object's
// size (sized), which need not read one.
type storingFetcher struct {
	store          *objectstore.Store
	fetched, sized atomic.Int64
}

func (f *storingFetcher) FetchObject(_ context.Context, info types.ObjectInfo) error {
	f.fetched.Add(1)
	if info.Size > 0 {
		f.sized.Add(1)
	}
	return f.store.Put(info.ID, []byte("d"))
}

// await polls cond for up to 5 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never %s", what)
		}
	}
}

// TestDepTableBudget: a parked task costs no goroutine, timer or
// subscription, per task or per object. 64 tasks parked on one missing
// object, then one task parked on 8 more, raise the process's goroutines by
// 0; the node keeps its one readiness subscription, which Start opened, and
// each object is watched once. Evicting the parked tasks, by any of the
// three paths that do, or landing the objects all at once leaves the
// process at its baseline.
//
// The "while fetching" cases park the same tasks on objects ready on another
// node, whose pulls never finish: a pull in flight holds one goroutine, and
// each row starts one. Evicting the tasks cancels every pull a row started,
// and no pull starts afterwards.
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
				l, log, ctrl, _ := countedLocal(t)
				fetcher := &blockingFetcher{}
				l.cfg.Fetcher = fetcher
				if !l.ReserveBundle(group, 0, types.CPU(1)) {
					t.Fatal("reserve failed")
				}
				missing := func(i uint64) types.ObjectID {
					id := pendingObject(ctrl.Store, 6100+i)
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
				// The table looks at new rows, and starts their pulls, on its
				// own goroutine: wait for the looks due, then count.
				looked := func(rows int64) func() bool {
					return func() bool {
						return ctrl.watched.Load() >= rows && (!fetching || fetcher.started.Load() >= rows)
					}
				}
				perRow := 0
				if fetching {
					perRow = 1
				}

				shared := missing(0)
				for i := 0; i < fanIn; i++ {
					park(uint64(i), shared)
				}
				await(t, "looked at the shared object", looked(1))
				if n := ctrl.watched.Load(); n != 1 {
					t.Fatalf("%d tasks parked on one object: it was looked at %d times, want 1", fanIn, n)
				}
				if n := rise(); n > perRow {
					t.Fatalf("%d tasks parked on one object cost %d goroutines, want ≤ %d", fanIn, n, perRow)
				}

				var distinct []types.ObjectID
				for i := 1; i <= k; i++ {
					distinct = append(distinct, missing(uint64(i)))
				}
				park(fanIn, distinct...)
				await(t, "looked at the distinct objects", looked(1+k))
				if n := rise(); n > perRow*(1+k) {
					t.Fatalf("one task parked on %d objects raised goroutines by %d, want ≤ %d", k, n, perRow*(1+k))
				}
				if l.WaitingLen() != fanIn+1 {
					t.Fatalf("waiting = %d, want %d", l.WaitingLen(), fanIn+1)
				}
				if n, o := ctrl.nodeSubs.Load(), ctrl.otherSubs.Load(); n != 1 || o != 0 {
					t.Fatalf("the table holds %d readiness subscriptions and %d others, want 1 and 0", n, o)
				}
				if pulls := fetcher.started.Load(); fetching && pulls != 1+k || !fetching && pulls != 0 {
					t.Fatalf("%d pulls started", pulls)
				}

				end.run(l, append(distinct, shared))
				await(t, "drained", func() bool { return l.Busy() == 0 })
				log.mu.Lock()
				ran := len(log.seen)
				log.mu.Unlock()
				if ran != end.ran {
					t.Fatalf("%d parked tasks ran, want %d", ran, end.ran)
				}
				// A cancelled pull's exit is asynchronous. The process may hold
				// no more than the baseline beyond the executors that ran the
				// tasks, which stay parked for the next ones, as many as ran at
				// once: they are the executor pool's (its
				// scheduler.executors.idle gauge).
				await(t, "back to the baseline", func() bool {
					return fetcher.cancelled.Load() == fetcher.started.Load() && int64(rise()) <= l.execs.parked()
				})
				pulls := fetcher.started.Load()
				time.Sleep(3 * pollPeriod)
				if n := fetcher.started.Load(); n != pulls {
					t.Fatalf("%d pulls started after the rows went", n-pulls)
				}
			})
		}
	}
}

// TestDepTableWatchBudget: a task parked on 16 pending objects that then
// become ready on another node costs the table one batched watch call —
// two at most, should a sweep renew the watches — no object-record read and
// no subscription of its own: the node's ready feed brings each object's
// location and size, and the table starts one pull per object that needs
// no record read either. A task parked on 16 objects already ready there
// costs the same: the watch call's answer holds what each pull needs.
func TestDepTableWatchBudget(t *testing.T) {
	const n = 16
	l, log, ctrl, store := countedLocal(t)
	fetcher := &storingFetcher{store: store}
	l.cfg.Fetcher = fetcher
	var deps []types.ObjectID
	for i := range uint64(n) {
		deps = append(deps, pendingObject(ctrl.Store, 6800+i))
	}
	spec := tSpec(6900, nil, deps...)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	await(t, "watched the objects", func() bool { return ctrl.watched.Load() >= n })
	for _, id := range deps {
		ctrl.AddObjectLocation(id, tNode(2), 1)
	}
	waitExec(t, log, spec.ID)
	if got, sized := fetcher.fetched.Load(), fetcher.sized.Load(); got != n || sized != n {
		t.Fatalf("%d pulls for %d objects, %d of them handed the size", got, n, sized)
	}
	if calls, reads := ctrl.watches.Load(), ctrl.reads.Load(); calls > 2 || reads != 0 {
		t.Fatalf("the table made %d watch calls and %d object reads, want ≤ 2 and 0", calls, reads)
	}

	var ready []types.ObjectID
	for i := range uint64(n) {
		id := pendingObject(ctrl.Store, 6920+i)
		ctrl.AddObjectLocation(id, tNode(2), 1)
		ready = append(ready, id)
	}
	calls := ctrl.watches.Load()
	spec = tSpec(6940, nil, ready...)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	waitExec(t, log, spec.ID)
	if got, sized := fetcher.fetched.Load(), fetcher.sized.Load(); got != 2*n || sized != 2*n {
		t.Fatalf("%d pulls for %d ready objects, %d of them handed the size", got-n, n, sized-n)
	}
	if calls, reads := ctrl.watches.Load()-calls, ctrl.reads.Load(); calls > 2 || reads != 0 {
		t.Fatalf("ready objects: the table made %d watch calls and %d object reads, want ≤ 2 and 0", calls, reads)
	}
	if nodeSubs, otherSubs := ctrl.nodeSubs.Load(), ctrl.otherSubs.Load(); nodeSubs != 1 || otherSubs != 0 {
		t.Fatalf("%d readiness and %d other subscriptions, want 1 and 0", nodeSubs, otherSubs)
	}
}

// TestParkCatchesALandingArgument: an argument that lands between
// enqueue's look at the store and park finds no row for its arrival to
// wake. park looks again under the table's lock, so the task is not parked
// on it: no row opens, nothing counts as parked, and the task runs.
func TestParkCatchesALandingArgument(t *testing.T) {
	l, reg, ctrl, store, led := meteredLocal(t, nil)
	log := newExecLog()
	l.SetExec(log.exec(led, store))
	l.Start()
	dep := pendingObject(ctrl, 7000)
	l.deps.beforePark = func() {
		if err := store.Put(dep, []byte("d")); err != nil {
			t.Error(err)
		}
	}
	spec := tSpec(7001, nil, dep)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	l.deps.mu.Lock()
	rows := len(l.deps.parked)
	l.deps.mu.Unlock()
	if parked := reg.Snapshot().Counters["scheduler.tasks.parked"]; parked != 0 || rows != 0 {
		t.Fatalf("an argument that landed before park: %d tasks parked, %d rows opened, want 0", parked, rows)
	}
	waitExec(t, log, spec.ID)
}

// TestParkedOldestGauge: scheduler.parked.oldest_ms reads how long the
// oldest task parked on a missing object has waited, on the ledger's clock,
// and 0 once nothing is parked. A task that leaves a row by eviction takes
// its age with it, though the row stays.
func TestParkedOldestGauge(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	l, reg, ctrl, store, led := meteredLocal(t, now.Load)
	log := newExecLog()
	l.SetExec(log.exec(led, store))
	l.Start()
	group := tGroup(71)
	if !l.ReserveBundle(group, 0, types.CPU(1)) {
		t.Fatal("reserve failed")
	}
	oldest := func() int64 { return reg.Snapshot().Gauges["scheduler.parked.oldest_ms"] }
	if got := oldest(); got != 0 {
		t.Fatalf("nothing parked: oldest = %d ms", got)
	}
	submit := func(spec types.TaskSpec) {
		t.Helper()
		if err := l.Submit(spec, false); err != nil {
			t.Fatal(err)
		}
	}
	first, second := pendingObject(ctrl, 7100), pendingObject(ctrl, 7101)
	grouped := tSpec(7102, nil, first)
	grouped.Group, grouped.Bundle = group, 0
	submit(grouped)
	now.Add(int64(30 * time.Millisecond))
	submit(tSpec(7103, nil, first))
	submit(tSpec(7104, nil, second))
	now.Add(int64(20 * time.Millisecond))
	if got := oldest(); got != 50 {
		t.Fatalf("oldest = %d ms, want 50", got)
	}
	l.ReleaseGroup(group, true)
	if got := oldest(); got != 20 {
		t.Fatalf("after the oldest task was evicted from its row: oldest = %d ms, want 20", got)
	}
	now.Add(int64(10 * time.Millisecond))
	if err := store.Put(first, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if got := oldest(); got != 30 {
		t.Fatalf("after the first argument landed: oldest = %d ms, want 30", got)
	}
	if err := store.Put(second, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if got := oldest(); got != 0 {
		t.Fatalf("after every argument landed: oldest = %d ms, want 0", got)
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

// TestInFlightTaskIsFoundByPointer: a task admitted here is reached through
// its record, not looked up by ID. Waiting on nothing but its QUEUED stamp,
// it is on the table's list and in no row; running, its record holds its
// pool and the table is empty.
func TestInFlightTaskIsFoundByPointer(t *testing.T) {
	l, _, store, _ := unstartedLocal(t, types.CPU(2), SpillNever)
	refs := &gatedRefs{entered: make(chan struct{}), gate: make(chan struct{})}
	l.cfg.Refs = refs
	running, release := make(chan *localTask, 1), make(chan struct{})
	l.cfg.Exec = func(_ context.Context, _ *core.TaskContext, lender core.Lender, _ *lifetime.TaskEntry, _ *types.TaskSpec, _ [][]byte) {
		running <- lender.(*localTask)
		<-release
	}
	defer close(release)
	l.Start()
	dep := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 7000), 0)
	if err := store.Put(dep, []byte("x")); err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() { err := l.Submit(tSpec(7001, nil, dep), false); submitted <- err }()
	<-refs.entered
	l.deps.mu.Lock()
	listed, rows := slices.Clone(l.deps.tasks), len(l.deps.parked)
	l.deps.mu.Unlock()
	if len(listed) != 1 || rows != 0 || listed[0].waits != 0 {
		t.Fatalf("before its QUEUED stamp: %d in the table, %d rows", len(listed), rows)
	}
	close(refs.gate)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	rec := <-running
	l.mu.Lock()
	pool, held := rec.pool, l.held
	l.mu.Unlock()
	if pool != l.res || held != 1 || l.WaitingLen() != 0 || rec != listed[0] {
		t.Fatalf("running: pool bound %v, %d held, %d in the table", pool == l.res, held, l.WaitingLen())
	}
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
			go func() { err := l.Submit(spec, false); submitted <- err }()
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

// TestResolveFetchBound: one pull is bounded by fetchTimeout, for a Get and
// for a parked dependency alike. A tighter bound restarts a
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

	if _, err := l.Resolve(context.Background(), remote(0)); err != nil {
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

// TestLostPutEndsItsRow: a put whose only copy is recorded lost cannot be
// made again. The row on it ends at its first probe: a task parked on it
// fails with types.ReasonLost and the object's ID, and a Get and a Wait on
// it are told fault.ErrNotReconstructable rather than left waiting.
func TestLostPutEndsItsRow(t *testing.T) {
	l, log, ctrl, store := buildLocal(t, types.CPU(2), SpillNever)
	recon := &fault.Reconstructor{Ctrl: ctrl, Resubmit: func(spec types.TaskSpec) error { return l.Submit(spec, false) }}
	l.cfg.Recon = recon.RequestReturn
	lost := types.PutObjectID(types.NilTaskID, 7100)
	ctrl.AddObjectLocation(lost, tNode(2), 1)
	ctrl.RemoveObjectLocation(lost, tNode(2))

	spec := tSpec(7200, nil, lost)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	await(t, "the parked task to fail", func() bool { return store.Contains(spec.ReturnID(0)) })
	data, _ := store.Get(spec.ReturnID(0))
	if msg, isErr := codec.AsError(data); !isErr || msg != types.ReasonLost+lost.String() {
		t.Fatalf("the parked task's return holds %q (an error: %v), want %q", msg, isErr, types.ReasonLost+lost.String())
	}
	log.mu.Lock()
	ran := log.seen[spec.ID]
	log.mu.Unlock()
	if ran {
		t.Fatal("the task parked on a lost put ran")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := l.Resolve(ctx, lost); !errors.Is(err, fault.ErrNotReconstructable) {
		t.Fatalf("Get of a lost put: %v, want fault.ErrNotReconstructable", err)
	}
	told := make(chan core.Followed, 1)
	stop := l.Follow([]types.ObjectID{lost}, []int{0}, told)
	defer stop()
	select {
	case f := <-told:
		if !errors.Is(f.Err, fault.ErrNotReconstructable) {
			t.Fatalf("Wait on a lost put told %v, want fault.ErrNotReconstructable", f.Err)
		}
	case <-ctx.Done():
		t.Fatal("a Wait on a lost put was left waiting")
	}
	await(t, "the rows to go", func() bool {
		l.deps.mu.Lock()
		defer l.deps.mu.Unlock()
		return len(l.deps.parked) == 0
	})
}
