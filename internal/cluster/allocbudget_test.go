//go:build !race

package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/transport"
	"repro/internal/types"
)

// heldRoundTrip returns a warmed local round trip — SubmitOpts, Get and
// Release of a no-op on the node it was submitted through — with both
// flushers held, as in TestLocalRoundTripControlPlaneBudget, so nothing runs
// but the round trips and what they allocate repeats exactly. The race
// detector changes allocation counts, so CI runs this file in its own
// non-race invocation.
func heldRoundTrip(t *testing.T) func() {
	t.Helper()
	reg, open := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	t.Cleanup(open)
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the executor pool
	}
	n.TaskLedger().Flush()
	probe.holdDeltaFlush(true)
	if _, err := d.SubmitOpts("births.gated", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both flushers to block", func() bool { return probe.waiting.Load() == 2 })
	ctx := context.Background()
	return func() {
		refs, err := d.SubmitOpts("births.noop", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(ctx, refs[0]); err != nil {
			t.Fatal(err)
		}
		d.Release(refs[0])
	}
}

// TestLocalTaskAllocBudget pins how many allocations a warmed local round
// trip makes. It read 20 before exec spans carried raw IDs, the TaskContext
// lost its closure and the owner-side Get stopped taking a store waiter,
// 12 before a task's spec was held once, from Submit to its executor, and
// 11 before the task's record held its ledger entry, its context and its
// return ID, and a task with no demand of its own shared the default one.
func TestLocalTaskAllocBudget(t *testing.T) {
	const budget = 6
	roundTrip := heldRoundTrip(t)
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > budget {
		t.Fatalf("a local round trip allocates %v times, budget %d", allocs, budget)
	}
}

// TestLocalTaskBytesBudget pins how many bytes a warmed local round trip
// allocates, from the runtime's running total over many of them. It read
// about 2,150 B while the spec was copied into the ledger, the dependency
// table, the runnable queue and the TaskContext, and 1,521 B while the
// record, the ledger entry, the context and the return IDs were four
// allocations.
func TestLocalTaskBytesBudget(t *testing.T) {
	const budget, rounds = 1360, 2000
	roundTrip := heldRoundTrip(t)
	for range 100 {
		roundTrip()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > budget {
		t.Fatalf("a local round trip allocates %d B, budget %d B", per, budget)
	} else {
		t.Logf("%d B per round trip", per)
	}
}

// TestHeldTaskRetainedBytesBudget pins how many live heap bytes a finished
// local task keeps while its result stays referenced, as rl.RunCore keeps
// every result: 2,000 no-ops on a node whose task table refuses their
// births, so that each birth stays owed and the ledger keeps the task's
// entry while its flushers run, as it does for any birth younger than
// types.BirthBound. Once a flush has found such a task finished, the entry
// keeps its lineage and nothing else: not the task's record at its owner,
// with its context and its scheduler state. The budget is the least the
// test read, over ten runs, before the record held the entry: 873 B per
// task (873 to 893). It reads about 800 B now, and about 1,080 B if the
// ledger keeps the whole record.
//
// Each task is submitted once an executor is parked for it, and the test
// pins that the held tasks start none: an executor started while a driver
// outruns the executors still finishing its earlier tasks (under CPU load,
// say) stays in the heap, since the runtime keeps every goroutine's record,
// and 261 such starts once read 842 B per task against 769 B without.
func TestHeldTaskRetainedBytesBudget(t *testing.T) {
	const budget, tasks = 873, 2000
	reg, _ := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	d := core.NewClient(n)
	res := types.CPU(1) // one demand for all: the spec shares it
	started := func() int64 { return n.Metrics().Snapshot().Counters["scheduler.executors.started"] }
	parked := func() bool { return n.Metrics().Snapshot().Gauges["scheduler.executors.idle"] > 0 }
	run := func(k int) []core.ObjectRef {
		refs := make([]core.ObjectRef, 0, k)
		for range k {
			refs = append(refs, runNoopWith(t, d, core.WithResources(res)))
			for !parked() {
				runtime.Gosched()
			}
		}
		return refs
	}
	flushed := func() {
		n.TaskLedger().Flush()
		for at := n.TaskLedger().Flushes(); n.TaskLedger().Flushes() < at+2; {
			runtime.Gosched()
		}
	}
	warm := run(100)
	flushed()
	probe.refuseBirths.Store(true)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	executors := started()
	held := run(tasks)
	flushed()
	if n := started() - executors; n != 0 {
		t.Fatalf("%d held tasks run one at a time started %d executors, want 0", tasks, n)
	}
	// Halt the flusher, so that no batch it is sending counts: the ledger
	// keeps its entries.
	n.TaskLedger().Abandon()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(warm)
	runtime.KeepAlive(held)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / tasks
	if per > budget {
		t.Fatalf("a finished task whose result is held keeps %d B live, budget %d B", per, budget)
	}
	t.Logf("%d B live per held task", per)
}
