package scheduler

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// TestExecutorBudget: a dispatched task runs on a parked executor goroutine
// when one is parked, and starts one only when none is (DESIGN.md §3.1). So a
// warmed scheduler starts no goroutine for a serial stream of tasks, a burst
// wider than maxIdleExecutors leaves exactly that many parked and lets the
// rest exit, and Stop leaves none. Read through the metrics an operator
// sees: scheduler.executors.started and scheduler.executors.idle. Goroutine
// counts are bounds, not equalities: a previous test's goroutines may still
// be exiting when the baselines are read. Two are read: before NewLocal,
// which Stop returns to, and once Start has started the dependency table's
// goroutine and its feed, which the bounds on executors count from.
func TestExecutorBudget(t *testing.T) {
	const warm, serial, burst = 16, 1000, maxIdleExecutors + 8
	ctrl := gcs.NewStore(4)
	nid := tNode(1)
	total := types.CPU(burst)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: total})
	store := objectstore.New(nid, ctrl, 0)
	led := ledgertest.New(ctrl, nid)
	reg := metrics.NewRegistry()
	before := runtime.NumGoroutine()

	l := NewLocal(LocalConfig{Node: nid, Total: total, Ctrl: ctrl, Store: store, Ledger: led, SpillThreshold: SpillNever, Metrics: reg})
	stopped := false
	t.Cleanup(func() {
		if !stopped {
			l.Stop()
		}
	})
	// A task holds its executor until the test lets it go: gate, when set,
	// is what it waits on, and running counts it in before it waits.
	var (
		mu      sync.Mutex
		gate    chan struct{}
		running sync.WaitGroup
	)
	done := make(chan struct{}, burst)
	l.SetExec(func(context.Context, types.TaskSpec, [][]byte) {
		mu.Lock()
		g := gate
		mu.Unlock()
		if g != nil {
			running.Done()
			<-g
		}
		done <- struct{}{}
	})
	l.Start()
	baseline := runtime.NumGoroutine()

	started := func() int64 { return reg.Snapshot().Counters["scheduler.executors.started"] }
	idle := func() int64 { return reg.Snapshot().Gauges["scheduler.executors.idle"] }
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never %s: %d executors started, %d parked, %d goroutines over baseline",
					what, started(), idle(), runtime.NumGoroutine()-baseline)
			}
		}
	}
	next := uint64(0)
	submit := func() {
		t.Helper()
		next++
		if err := l.Submit(tSpec(next, types.CPU(1)), false); err != nil {
			t.Fatal(err)
		}
	}
	// together runs n tasks at once, each on its own executor, and waits
	// until they have all finished and their executors parked or exited.
	together := func(n int, parked int64) {
		t.Helper()
		g := make(chan struct{})
		mu.Lock()
		gate = g
		mu.Unlock()
		running.Add(n)
		for i := 0; i < n; i++ {
			submit()
		}
		running.Wait()
		mu.Lock()
		gate = nil
		mu.Unlock()
		close(g)
		for i := 0; i < n; i++ {
			<-done
		}
		await("settled", func() bool {
			return l.Busy() == 0 && idle() == parked && runtime.NumGoroutine() <= baseline+int(parked)
		})
	}

	together(warm, warm)
	if n := started(); n != warm {
		t.Fatalf("%d tasks at once on a fresh scheduler started %d executors, want %d", warm, n, warm)
	}

	for i := 0; i < serial; i++ {
		submit()
		<-done
	}
	if n := started() - warm; n != 0 {
		t.Fatalf("%d serial tasks on a warmed scheduler started %d executors, want 0", serial, n)
	}

	// The warm executors are reused; the burst starts the rest, and all but
	// maxIdleExecutors of them exit once it is over.
	together(burst, maxIdleExecutors)
	if n := started(); n != burst {
		t.Fatalf("a burst of %d after %d warm executors: %d started in all, want %d", burst, warm, n, burst)
	}

	l.Stop()
	stopped = true
	if n := idle(); n != 0 {
		t.Fatalf("%d executors parked after Stop, want 0", n)
	}
	await("back to the baseline after Stop", func() bool { return runtime.NumGoroutine() <= before })
}
