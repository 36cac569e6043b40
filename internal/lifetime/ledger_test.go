package lifetime

import (
	"maps"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/types"
)

// callCounter is a control plane that counts the calls the two ledgers
// flush through; births counts the ModifyTaskStates calls that carry one,
// states the others. No API call pins lineage: a birth does.
type callCounter struct {
	*gcs.Store
	refs, states, ensures, births atomic.Int64
}

func (c *callCounter) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	c.refs.Add(1)
	return c.Store.ModifyObjectRefCounts(node, deltas, op)
}

func (c *callCounter) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	if slices.ContainsFunc(deltas, func(d types.TaskStateDelta) bool { return d.Spec != nil }) {
		c.births.Add(1)
	} else {
		c.states.Add(1)
	}
	return c.Store.ModifyTaskStates(node, deltas, op)
}

func (c *callCounter) EnsureObjects(producers map[types.ObjectID]types.TaskID) []types.ObjectID {
	c.ensures.Add(1)
	return c.Store.EnsureObjects(producers)
}

// counts reads refs, births, states and ensures.
func (c *callCounter) counts() [4]int64 {
	return [4]int64{c.refs.Load(), c.births.Load(), c.states.Load(), c.ensures.Load()}
}

// ledgerWorkload drives both ledgers: 100 retain/release pairs over 50
// objects, and birthWorkload's 100 task lifecycles.
func ledgerWorkload(t *testing.T, tr *Tracker, led *TaskLedger) {
	for i := 0; i < 100; i++ {
		tr.Retain(sweepObjID(byte(1 + i%50)))
		tr.Release(sweepObjID(byte(1 + i%50)))
	}
	birthWorkload(t, led)
}

// birthWorkload gives led 100 tasks born under one driver root, each with
// one return and one by-reference argument, and makes each finish: three
// transitions. It returns their specs.
func birthWorkload(t *testing.T, led *TaskLedger) []types.TaskSpec {
	root := types.DeriveTaskID(types.NilTaskID, 3000)
	led.Root(root)
	specs := make([]types.TaskSpec, 100)
	for i := range specs {
		idx := uint64(i + 1)
		specs[i] = types.TaskSpec{
			ID: types.DeriveTaskID(root, idx), Function: "f", NumReturns: 1,
			Parent: root, SubmitIndex: idx, Args: []types.Arg{types.RefArg(sweepObjID(byte(1 + i%50)))},
		}
		if adopted, fresh := led.Birth(nil, &specs[i], led.ClockNs()); !adopted || !fresh {
			t.Fatalf("birth %d: adopted %v, fresh %v", i, adopted, fresh)
		}
		for _, s := range []types.TaskStatus{types.TaskQueued, types.TaskRunning, types.TaskFinished} {
			led.Transition(specs[i].ID, s, types.WorkerID{}, "")
		}
	}
	return specs
}

func newCountedLedgers() (*callCounter, *Tracker, *TaskLedger) {
	ctrl := &callCounter{Store: gcs.NewStore(2)}
	tr, led := NewTracker(ctrl), NewTaskLedger(ctrl)
	tr.SetNode(retireTestNode(3))
	led.SetNode(retireTestNode(3))
	return ctrl, tr, led
}

// TestLedgerFlushBudget pins what the two ledgers cost the control plane.
// A task born in the ledger reaches the table in the flush — one
// births-carrying ModifyTaskStates ahead of the deltas — with its return's
// producer edge and its argument's pin derived from it, so no EnsureObjects
// and no call of its own for the pin. Batched, a whole workload is one call
// of each kind; before Start, every mutation is one call; past
// flushKickThreshold entries a timed flush would send the flusher is
// kicked; and
// Start→Stop or Start→Abandon leaves no goroutine behind.
func TestLedgerFlushBudget(t *testing.T) {
	for _, batched := range []bool{true, false} {
		name := map[bool]string{true: "batched", false: "sync"}[batched]
		t.Run(name, func(t *testing.T) {
			ctrl, tr, led := newCountedLedgers()
			tr.async, led.async = batched, batched // batched, with this test as the flusher
			ledgerWorkload(t, tr, led)
			want := [4]int64{200, 100, 300, 0} // refs, births, states, ensures
			if batched {
				if got := ctrl.counts(); got != [4]int64{} {
					t.Fatalf("batched mutations reached the control plane: refs, births, states, ensures = %v", got)
				}
				if !tr.Flush() || !led.Flush() {
					t.Fatal("a flush did not drain")
				}
				want = [4]int64{1, 1, 1, 0}
			}
			if got := ctrl.counts(); got != want {
				t.Fatalf("refs, births, states, ensures = %v calls, want %v", got, want)
			}
			if info, _ := ctrl.GetObject(sweepObjID(7)); !info.EverRetained || info.RefCount != 0 || info.LineagePins != 2 {
				t.Fatalf("object after the flush: %+v", info)
			}
		})
	}

	// Births: in either mode, each born task's record is in the table,
	// FINISHED and owned here, with its return's producer edge from it.
	t.Run("births", func(t *testing.T) {
		for _, batched := range []bool{true, false} {
			ctrl, _, led := newCountedLedgers()
			led.async = batched
			specs := birthWorkload(t, led)
			if !led.Flush() {
				t.Fatal("the flush did not drain")
			}
			for _, spec := range specs {
				st, ok := ctrl.GetTask(spec.ID)
				if !ok || st.Status != types.TaskFinished || st.Owner != led.Node() || st.Spec.Function != "f" {
					t.Fatalf("batched=%v: record of %v: %+v, %v", batched, spec.ID, st, ok)
				}
				if info, ok := ctrl.GetObject(spec.ReturnID(0)); !ok || info.Producer != spec.ID {
					t.Fatalf("batched=%v: return of %v: %+v, %v", batched, spec.ID, info, ok)
				}
			}
		}
	})

	// The kick counts what a timed flush would send: the transitions of
	// tasks whose birth landed, and births older than types.BirthBound.
	t.Run("kick", func(t *testing.T) {
		_, _, led := newCountedLedgers()
		led.async = true // batched, and no flusher takes the kick
		for i := 0; i < 300; i++ {
			id := types.DeriveTaskID(types.NilTaskID, uint64(2000+i))
			led.Adopt(id, 0, types.TaskQueued)
			led.Transition(id, types.TaskRunning, types.NilWorkerID, "")
			if kicked := len(led.kick) == 1; kicked != (i+1 >= flushKickThreshold) {
				t.Fatalf("after %d transitions kicked = %v", i+1, kicked)
			}
		}
		_, _, led = newCountedLedgers()
		led.async = true
		for i := 0; i < 300; i++ {
			led.Birth(nil, &types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, uint64(3000+i)), Function: "f"}, led.ClockNs())
		}
		if len(led.kick) != 0 {
			t.Fatal("300 young births kicked the flusher")
		}
		time.Sleep(types.BirthBound + time.Millisecond)
		led.Birth(nil, &types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, 3300), Function: "f"}, led.ClockNs())
		if len(led.kick) != 1 {
			t.Fatal("300 births older than the bound did not kick the flusher")
		}
	})

	t.Run("goroutines", func(t *testing.T) {
		for _, end := range []string{"Stop", "Abandon"} {
			_, tr, led := newCountedLedgers()
			before := runtime.NumGoroutine()
			tr.Start()
			led.Start()
			if end == "Stop" {
				tr.Stop()
				led.Stop()
			} else {
				tr.Abandon()
				led.Abandon()
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() != before {
				if time.Now().After(deadline) {
					t.Fatalf("Start then %s: %d goroutines, %d before", end, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
}

// TestBatchedRetainReleaseTouches: on a started tracker, a retain and a
// release of a fresh object inside one flush interval net to a delta of 0
// that still flushes, so the record is ever-retained and its zero count is
// published for collection.
func TestBatchedRetainReleaseTouches(t *testing.T) {
	ctrl := gcs.NewStore(2)
	sub := ctrl.Subscribe(gcs.TopicObjectGC, types.NilObjectID)
	defer sub.Close()
	tr := NewTracker(ctrl)
	tr.SetNode(retireTestNode(4))
	tr.Start()
	defer tr.Stop()
	id := sweepObjID(90)

	tr.flushMu.Lock() // hold the flusher off: both land in one interval
	tr.Retain(id)
	tr.Release(id)
	d, ok := tr.Unflushed()[id]
	tr.flushMu.Unlock()
	if !ok || d != 0 {
		t.Fatalf("unflushed delta after a retain and a release = %d (present %v), want a 0 entry", d, ok)
	}
	tr.Flush()
	if info, _ := ctrl.GetObject(id); !info.EverRetained || info.RefCount != 0 {
		t.Fatalf("record after the flush: %+v, want ever retained at count 0", info)
	}
	select {
	case msg := <-sub.C():
		var got types.ObjectID
		copy(got[:], msg)
		if got != id {
			t.Fatalf("GC published %v, want %v", got, id)
		}
	case <-time.After(time.Second):
		t.Fatal("the batched touch did not publish GC")
	}
}

// TestYoungBirthsDoNotKick: births younger than types.BirthBound wait at
// home, so a thousand of them in a started ledger cost no flush beyond its
// ticks: the size kick does not count them. A run slower than the bound
// proves nothing and is made again.
func TestYoungBirthsDoNotKick(t *testing.T) {
	for attempt := 0; ; attempt++ {
		_, _, led := newCountedLedgers()
		led.Start()
		since, start := led.Flushes(), time.Now()
		for i := 0; i < 1000; i++ {
			led.Birth(nil, &types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, uint64(5000+i)), Function: "f"}, led.ClockNs())
			runtime.Gosched() // a kicked flusher gets to run
		}
		flushes, elapsed := led.Flushes()-since, time.Since(start)
		led.Abandon()
		if elapsed >= types.BirthBound && attempt < 3 {
			continue
		}
		// The ticks that can fall in the window, and the flush in flight at
		// its start.
		if ticks := uint64(elapsed/defaultFlushInterval) + 1; flushes > ticks+1 {
			t.Fatalf("1000 young births took %d flushes in %v, want at most %d ticks + 1", flushes, elapsed, ticks)
		}
		return
	}
}

// TestOwedBirthGauges: the task ledger publishes how many births it keeps
// at home and the age of the oldest.
func TestOwedBirthGauges(t *testing.T) {
	_, _, led := newCountedLedgers()
	reg := metrics.NewRegistry()
	led.SetMetrics(reg)
	led.async = true // batched, with this test as the flusher
	gauges := func() (int64, int64) {
		g := reg.Snapshot().Gauges
		return g["lifetime.births.owed"], g["lifetime.births.oldest_ms"]
	}
	if n, age := gauges(); n != 0 || age != 0 {
		t.Fatalf("owed, oldest_ms = %d, %d before any birth, want 0, 0", n, age)
	}
	start := time.Now()
	for i := 0; i < 3; i++ {
		led.Birth(nil, &types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, uint64(6000+i)), Function: "f"}, led.ClockNs())
	}
	time.Sleep(5 * time.Millisecond)
	n, age := gauges()
	if upper := time.Since(start).Milliseconds(); n != 3 || age < 5 || age > upper {
		t.Fatalf("owed, oldest_ms = %d, %d after 3 births 5 ms ago, want 3 and 5..%d", n, age, upper)
	}
	led.flush(true)
	if got, _ := gauges(); got != 3 {
		t.Fatalf("owed = %d after a timed flush of young births, want 3", got)
	}
	led.Flush()
	if n, age := gauges(); n != 0 || age != 0 {
		t.Fatalf("owed, oldest_ms = %d, %d after an explicit flush, want 0, 0", n, age)
	}
}

// TestLedgerFlushLagGauges: each ledger publishes its waiting entries and
// parked batches under its own label.
func TestLedgerFlushLagGauges(t *testing.T) {
	ctrl := &birthRecorder{Store: gcs.NewStore(2)}
	reg := metrics.NewRegistry()
	tr, led := NewTracker(ctrl), NewTaskLedger(ctrl)
	tr.SetMetrics(reg)
	led.SetMetrics(reg)
	tr.async, led.async = true, true // batched, with this test as the flusher
	tr.Retain(sweepObjID(91), sweepObjID(92))
	task := types.DeriveTaskID(types.NilTaskID, 3000)
	led.Birth(nil, &types.TaskSpec{ID: task, Function: "f", Args: []types.Arg{types.RefArg(sweepObjID(91))}}, led.ClockNs())
	gauges := func() [4]int64 {
		g := reg.Snapshot().Gauges
		return [4]int64{
			g["lifetime.ledger.unflushed;ledger=refs"], g["lifetime.ledger.parked;ledger=refs"],
			g["lifetime.ledger.unflushed;ledger=tasks"], g["lifetime.ledger.parked;ledger=tasks"],
		}
	}
	if got := gauges(); got != [4]int64{2, 0, 1, 0} {
		t.Fatalf("refs unflushed, parked, tasks unflushed, parked = %v before a flush, want 2 0 1 0", got)
	}
	ctrl.refuse = true
	tr.Flush()
	led.Flush()
	if got := gauges(); got != [4]int64{0, 0, 1, 0} {
		t.Fatalf("after a flush with the birth refused = %v, want 0 0 1 0: a birth stays owed, not parked", got)
	}
	ctrl.refuse = false
	led.Flush()
	led.Transition(task, types.TaskFinished, types.NilWorkerID, "")
	ctrl.refuse = true
	led.Flush()
	if got := gauges(); got != [4]int64{0, 0, 0, 1} {
		t.Fatalf("after a flush with the delta refused = %v, want 0 0 0 1", got)
	}
	ctrl.refuse = false
	led.Flush()
	if got := gauges(); got != [4]int64{} {
		t.Fatalf("after a clean flush = %v, want all zero", got)
	}
}

// flakyRefs is a control plane whose first `fails` refcount flushes reach no
// shard and whose later ones land. The second call closes sending as it
// starts, so the caller can act while the send is under way; with resume
// set, that call then waits for it before it returns.
type flakyRefs struct {
	*gcs.Store
	fails   int64
	calls   atomic.Int64
	sending chan struct{}
	resume  chan struct{}
}

func (c *flakyRefs) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	n := c.calls.Add(1)
	var failed []types.ObjectID
	if n <= c.fails {
		failed = slices.Collect(maps.Keys(deltas))
	}
	if n == 2 {
		close(c.sending)
		if c.resume != nil {
			<-c.resume
		}
	}
	if failed != nil {
		return failed
	}
	return c.Store.ModifyObjectRefCounts(node, deltas, op)
}

// TestForgetRacingRedelivery: Forget runs while a flush redelivers a parked
// batch with the ledger's mutex released. It must leave the map being sent
// alone — under -race a write to it is reported — and the forgotten object
// is gone from the ledger whether the redelivery lands or fails again: a
// failed one re-parks what is left of the batch, not what it sent.
func TestForgetRacingRedelivery(t *testing.T) {
	a, b := sweepObjID(201), sweepObjID(202)
	t.Run("lands", func(t *testing.T) {
		for i := 0; i < 100; i++ {
			ctrl := &flakyRefs{Store: gcs.NewStore(1), fails: 1, sending: make(chan struct{})}
			tr := NewTracker(ctrl) // unstarted: the Retain flushes inline, and its batch parks
			tr.Retain(a, b)
			redelivered := make(chan bool)
			go func() { redelivered <- tr.Flush() }()
			<-ctrl.sending
			tr.Forget(a)
			if !<-redelivered {
				t.Fatal("the redelivery did not land")
			}
			if tr.Held(a) != 0 || tr.Held(b) != 1 || len(tr.Unflushed()) != 0 {
				t.Fatalf("after the race: held a=%d b=%d, unflushed %v", tr.Held(a), tr.Held(b), tr.Unflushed())
			}
		}
	})
	t.Run("fails again", func(t *testing.T) {
		ctrl := &flakyRefs{Store: gcs.NewStore(1), fails: 2, sending: make(chan struct{}), resume: make(chan struct{})}
		tr := NewTracker(ctrl)
		tr.Retain(a, b)
		redelivered := make(chan bool)
		go func() { redelivered <- tr.Flush() }()
		<-ctrl.sending
		tr.Forget(a)
		close(ctrl.resume)
		if <-redelivered {
			t.Fatal("the redelivery landed; want it to fail")
		}
		if got := tr.Unflushed(); len(got) != 1 || got[b] != 1 {
			t.Fatalf("re-parked %v, want only b's +1", got)
		}
		if !tr.Flush() || len(tr.Unflushed()) != 0 {
			t.Fatalf("the third delivery did not land: unflushed %v", tr.Unflushed())
		}
	})
	t.Run("fresh batch fails", func(t *testing.T) {
		ctrl := &flakyRefs{Store: gcs.NewStore(1), fails: 2, sending: make(chan struct{}), resume: make(chan struct{})}
		ctrl.calls.Store(1) // the Retain's own flush is the second call: it blocks, then fails
		tr := NewTracker(ctrl)
		retained := make(chan struct{})
		go func() { tr.Retain(a, b); close(retained) }()
		<-ctrl.sending
		tr.Forget(a)
		close(ctrl.resume)
		<-retained
		if got := tr.Unflushed(); len(got) != 1 || got[b] != 1 {
			t.Fatalf("parked %v, want only b's +1", got)
		}
	})
}
