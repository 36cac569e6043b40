package node

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/scheduler"
	"repro/internal/transport"
	"repro/internal/types"
)

// stalledTaskTable is a control plane whose ModifyTaskStates calls block,
// once stalled, until its gate opens: a task-ledger flush blocked there
// holds the ledger's flush lock, so neither it nor the ledger's timed
// flushes read the clock or take anything off the ledger meanwhile.
type stalledTaskTable struct {
	gcs.API
	stalled atomic.Bool
	gate    chan struct{}
	blocked atomic.Int32
}

func (c *stalledTaskTable) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	if c.stalled.Load() {
		c.blocked.Add(1)
		<-c.gate
	}
	return c.API.ModifyTaskStates(node, deltas, op)
}

// TestLocalRoundTripClockBudget pins how often a warmed local round trip —
// SubmitOpts, Get and Release of a no-op on the node it was submitted
// through — reads the node's one clock: once at submit (the birth, the
// QUEUED stamp and the enqueue time), once at dispatch (SCHEDULED and the
// dispatch latency), and once each for the RUNNING stamp and the finish,
// which the exec span reuses. It read the clock 9 times before each stage
// stamped from one reading. The second case has more than the task ledger's
// flush-kick threshold (256) of entries waiting, where every ledger
// mutation used to read the clock again to age the owed births.
func TestLocalRoundTripClockBudget(t *testing.T) {
	const budget, rounds, kick = 4, 100, 256
	var reads atomic.Int64
	counted := clusterClock
	clusterClock = func(ctrl gcs.API) func() int64 {
		now := counted(ctrl)
		return func() int64 { reads.Add(1); return now() }
	}
	t.Cleanup(func() { clusterClock = counted })

	reg := core.NewRegistry()
	reg.Register("noop", func(*core.TaskContext, [][]byte) ([][]byte, error) { return [][]byte{nil}, nil })
	ctrl := &stalledTaskTable{API: gcs.NewStore(2), gate: make(chan struct{})}
	n, err := New(Config{
		Resources: types.CPU(4), Network: transport.NewInproc(0), ListenAddr: "n1",
		Ctrl: ctrl, Registry: reg, SpillThreshold: scheduler.SpillNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	t.Cleanup(func() { close(ctrl.gate) }) // ahead of the node's shutdown
	d := core.NewClient(n)
	ctx := context.Background()
	roundTrip := func() {
		refs, err := d.SubmitOpts("noop", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(ctx, refs[0]); err != nil {
			t.Fatal(err)
		}
		d.Release(refs[0])
	}
	for range 10 {
		roundTrip() // warm: the executor pool
	}
	// An explicit flush lands the birth of a task whose result is held and
	// blocks in the task table, holding the ledger's flush lock: the
	// flusher's ticks wait behind it.
	if _, err := d.SubmitOpts("noop", nil); err != nil {
		t.Fatal(err)
	}
	ctrl.stalled.Store(true)
	go n.TaskLedger().Flush()
	for deadline := time.Now().Add(10 * time.Second); ctrl.blocked.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the task ledger's flush never reached the task table")
		}
	}
	waiting := func() int64 {
		return n.Metrics().Snapshot().Gauges["lifetime.ledger.unflushed;ledger=tasks"]
	}

	measure := func(name string) {
		t.Helper()
		before := reads.Load()
		for range rounds {
			roundTrip()
		}
		if per := float64(reads.Load()-before) / rounds; per > budget {
			t.Fatalf("%s: a local round trip reads the clock %.2f times, budget %d", name, per, budget)
		}
	}
	measure("few entries waiting")
	for waiting() <= kick {
		roundTrip()
	}
	measure("past the flush kick")
	if w := waiting(); w <= kick {
		t.Fatalf("%d ledger entries waiting after the second case, want more than %d", w, kick)
	}
}
