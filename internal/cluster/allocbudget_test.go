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
		// A Get can return before the executor of its task has released the
		// task's CPU, and that executor can then wait a scheduler time slice
		// to run. A task that cannot start at once flushes its birth at
		// admission, which would wait for the held flush: so each round trip
		// starts once only the gated task holds resources.
		for n.Scheduler().Busy() > 1 {
			runtime.Gosched()
		}
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
// and 12 before a task's spec was held once, from Submit to its executor.
func TestLocalTaskAllocBudget(t *testing.T) {
	const budget = 11
	roundTrip := heldRoundTrip(t)
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > budget {
		t.Fatalf("a local round trip allocates %v times, budget %d", allocs, budget)
	}
}

// TestLocalTaskBytesBudget pins how many bytes a warmed local round trip
// allocates, from the runtime's running total over many of them. It read
// about 2,150 B while the spec was copied into the ledger, the dependency
// table, the runnable queue and the TaskContext.
func TestLocalTaskBytesBudget(t *testing.T) {
	const budget, rounds = 1600, 2000
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
