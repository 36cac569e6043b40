package scheduler

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/types"
)

// TestGatherArgsUnwindAlias: the same ObjectID appearing in several args
// takes one pin per occurrence, and both the unwind (gather fails midway)
// and unpinArgs release exactly that many — pin counts return to zero, so
// an aliased argument can still be evicted afterwards.
func TestGatherArgsUnwindAlias(t *testing.T) {
	l, _, _, store := buildLocal(t, types.CPU(2), SpillNever)
	a := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 800), 0)
	b := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 801), 0)
	if err := store.Put(a, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(b, []byte("b")); err != nil {
		t.Fatal(err)
	}
	spec := types.TaskSpec{
		ID:         types.DeriveTaskID(types.NilTaskID, 802),
		Function:   "f",
		NumReturns: 1,
		Resources:  types.CPU(1),
		Args:       []types.Arg{types.RefArg(a), types.RefArg(a), types.RefArg(b)},
	}
	// Success path: per-occurrence pins, fully released by unpinArgs.
	args, missing := l.gatherArgs(&spec)
	if missing || len(args) != 3 {
		t.Fatalf("gatherArgs = %d args, missing=%v", len(args), missing)
	}
	if got := store.PinCount(a); got != 2 {
		t.Fatalf("aliased arg pinned %d times, want 2", got)
	}
	if got := store.PinCount(b); got != 1 {
		t.Fatalf("PinCount(b) = %d, want 1", got)
	}
	l.unpinArgs(&spec)
	if store.PinCount(a) != 0 || store.PinCount(b) != 0 {
		t.Fatalf("unpinArgs left pins: a=%d b=%d", store.PinCount(a), store.PinCount(b))
	}
	// Failure path: the gather fails at the last arg, after the aliased ref
	// was pinned twice; the unwind must release both of those pins.
	store.Delete(b)
	if _, missing := l.gatherArgs(&spec); !missing {
		t.Fatal("gatherArgs succeeded without b resident")
	}
	if got := store.PinCount(a); got != 0 {
		t.Fatalf("unwind left %d pins on the aliased arg", got)
	}
	if got := store.PinCount(b); got != 0 {
		t.Fatalf("unwind left %d pins on the missing arg", got)
	}
}

// TestResolveLeavesNoWaiters: a resolve holds at most one arrival channel
// in the store however many poll periods it waits, and a resolve that ends
// without the object arriving (here, a cancelled Get) leaves none behind.
func TestResolveLeavesNoWaiters(t *testing.T) {
	l, _, _, store := buildLocal(t, types.CPU(2), SpillNever)
	id := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 810), 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := l.Resolve(ctx, id)
		done <- err
	}()
	for range 6 {
		time.Sleep(pollPeriod)
		if n := store.Waiters(id); n > 1 {
			t.Fatalf("a waiting resolve holds %d arrival channels, want at most 1", n)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Resolve = %v, want the cancellation", err)
	}
	if n := store.Waiters(id); n != 0 {
		t.Fatalf("a cancelled resolve left %d arrival channels in the store", n)
	}
}
