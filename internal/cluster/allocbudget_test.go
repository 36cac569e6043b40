//go:build !race

package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/transport"
)

// TestLocalTaskAllocBudget pins what a warmed local round trip allocates:
// SubmitOpts, Get and Release of a no-op on the node it was submitted
// through. Both flushers are held, as in TestLocalRoundTripControlPlaneBudget,
// so nothing runs but the round trips and the count repeats exactly. It
// read 20 before exec spans carried raw IDs, the TaskContext lost its
// closure and the owner-side Get stopped taking a store waiter. The race
// detector changes allocation counts, so CI runs this file in its own
// non-race invocation.
func TestLocalTaskAllocBudget(t *testing.T) {
	const budget = 12
	reg, open := birthFuncs(t)
	n, probe := probedNode(t, gcs.NewStore(4), transport.NewInproc(0), reg)
	defer open()
	d := core.NewClient(n)
	for range 10 {
		runNoop(t, d) // warm: the ledger's clock, the executor pool
	}
	n.TaskLedger().Flush()
	probe.holdDeltaFlush(true)
	if _, err := d.SubmitOpts("births.gated", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both flushers to block", func() bool { return probe.waiting.Load() == 2 })

	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		refs, err := d.SubmitOpts("births.noop", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(ctx, refs[0]); err != nil {
			t.Fatal(err)
		}
		d.Release(refs[0])
	})
	if allocs > budget {
		t.Fatalf("a local round trip allocates %v times, budget %d", allocs, budget)
	}
}
