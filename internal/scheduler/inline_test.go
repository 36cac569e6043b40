package scheduler

import (
	"context"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// buildInlineLocal is buildLocal with the inline fast path enabled. The
// same execLog backs Exec and ExecInline, so tests distinguish the paths
// only through Inlined() — exactly the observability contract DESIGN.md
// §15 promises (mode visible in counters, never in results).
func buildInlineLocal(t *testing.T, fence func() bool) (*Local, *execLog, *gcs.Store, *objectstore.Store) {
	t.Helper()
	ctrl := gcs.NewStore(4)
	nid := tNode(2)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(2)})
	store := objectstore.New(nid, ctrl, 0)
	log := newExecLog()
	led := ledgertest.New(ctrl, nid)
	l := NewLocal(LocalConfig{
		Node:            nid,
		Total:           types.CPU(2),
		Ctrl:            ctrl,
		Store:           store,
		Ledger:          led,
		SpillThreshold:  SpillNever,
		DepPollInterval: 5 * time.Millisecond,
		InlineDispatch:  true,
		InlineFence:     fence,
	})
	l.SetExec(log.exec(led, store))
	l.SetExecInline(log.exec(led, store))
	l.Start()
	t.Cleanup(l.Stop)
	return l, log, ctrl, store
}

// TestInlineDispatchSynchronous: an eligible tiny task runs to completion
// on the submitting goroutine — by the time Submit returns, the task has
// executed, its returns are in the store, and its record is FINISHED.
func TestInlineDispatchSynchronous(t *testing.T) {
	l, log, ctrl, store := buildInlineLocal(t, nil)
	spec := tSpec(1, nil)
	if err := l.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	ran := log.seen[spec.ID]
	log.mu.Unlock()
	if !ran {
		t.Fatal("Submit returned before the inline task executed")
	}
	if l.Inlined() != 1 {
		t.Fatalf("Inlined = %d, want 1", l.Inlined())
	}
	if !store.Contains(spec.ReturnID(0)) {
		t.Fatal("inline task's return object missing")
	}
	if rec, ok := ctrl.GetTask(spec.ID); !ok || rec.Status != types.TaskFinished {
		t.Fatalf("task record = %+v, %v", rec, ok)
	}
	// Resources released: a full pool's worth of follow-ups also inline.
	for i := uint64(2); i < 6; i++ {
		if err := l.Submit(tSpec(i, nil), false); err != nil {
			t.Fatal(err)
		}
	}
	if l.Inlined() != 5 {
		t.Fatalf("Inlined = %d after 5 tiny submits, want 5", l.Inlined())
	}
}

// TestInlineIneligibleFallsBack: every eligibility fence routes the task
// through the ordinary queue — it still executes, but Inlined stays zero.
func TestInlineIneligibleFallsBack(t *testing.T) {
	t.Run("actor", func(t *testing.T) {
		l, log, _, _ := buildInlineLocal(t, nil)
		spec := tSpec(10, nil)
		spec.Actor = true
		if err := l.Submit(spec, false); err != nil {
			t.Fatal(err)
		}
		waitExec(t, log, spec.ID)
		if l.Inlined() != 0 {
			t.Fatal("actor method ran inline")
		}
	})
	t.Run("fence", func(t *testing.T) {
		l, log, _, _ := buildInlineLocal(t, func() bool { return true })
		spec := tSpec(11, nil)
		if err := l.Submit(spec, false); err != nil {
			t.Fatal(err)
		}
		waitExec(t, log, spec.ID)
		if l.Inlined() != 0 {
			t.Fatal("task ran inline with the multi-tenant fence engaged")
		}
	})
	t.Run("depth-cap", func(t *testing.T) {
		l, log, _, _ := buildInlineLocal(t, nil)
		spec := tSpec(12, nil)
		if err := l.SubmitAt(spec, false, inlineDepthCap); err != nil {
			t.Fatal(err)
		}
		waitExec(t, log, spec.ID)
		if l.Inlined() != 0 {
			t.Fatal("task at the depth cap ran inline instead of trampolining")
		}
	})
	t.Run("big-resources", func(t *testing.T) {
		l, log, _, _ := buildInlineLocal(t, nil)
		spec := tSpec(13, types.CPU(2))
		if err := l.Submit(spec, false); err != nil {
			t.Fatal(err)
		}
		waitExec(t, log, spec.ID)
		if l.Inlined() != 0 {
			t.Fatal("multi-unit task ran inline")
		}
	})
	t.Run("unresolved-dep", func(t *testing.T) {
		l, log, ctrl, store := buildInlineLocal(t, nil)
		dep := types.ObjectIDForReturn(types.DeriveTaskID(types.NilTaskID, 778), 0)
		ctrl.EnsureObject(dep, types.DeriveTaskID(types.NilTaskID, 778))
		spec := tSpec(14, nil, dep)
		if err := l.Submit(spec, false); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(dep, []byte("d")); err != nil {
			t.Fatal(err)
		}
		waitExec(t, log, spec.ID)
		if l.Inlined() != 0 {
			t.Fatal("task with an unresolved dep ran inline")
		}
	})
}

// TestInlineDepthThreadsToChildren: a task running inline sees the
// incremented inline depth in its execution context, so submissions it
// makes carry depth+1 and deep chains trampoline at the cap instead of
// recursing the stack without bound.
func TestInlineDepthThreadsToChildren(t *testing.T) {
	ctrl := gcs.NewStore(4)
	nid := tNode(3)
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: types.CPU(2)})
	store := objectstore.New(nid, ctrl, 0)
	l := NewLocal(LocalConfig{
		Node:            nid,
		Total:           types.CPU(2),
		Ctrl:            ctrl,
		Store:           store,
		Ledger:          ledgertest.New(ctrl, nid),
		SpillThreshold:  SpillNever,
		DepPollInterval: 5 * time.Millisecond,
		InlineDispatch:  true,
	})
	depth := -1
	l.SetExec(func(ctx context.Context, spec types.TaskSpec, args [][]byte) {})
	l.SetExecInline(func(ctx context.Context, spec types.TaskSpec, args [][]byte) {
		depth = types.InlineDepthFrom(ctx)
	})
	l.Start()
	t.Cleanup(l.Stop)
	// Inline execution is synchronous: depth is set when SubmitAt returns.
	if err := l.SubmitAt(tSpec(20, nil), false, 3); err != nil {
		t.Fatal(err)
	}
	if depth != 4 {
		t.Fatalf("child-visible inline depth = %d, want submitter depth+1 = 4", depth)
	}
}

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
	args, missing := l.gatherArgs(spec)
	if missing || len(args) != 3 {
		t.Fatalf("gatherArgs = %d args, missing=%v", len(args), missing)
	}
	if got := store.PinCount(a); got != 2 {
		t.Fatalf("aliased arg pinned %d times, want 2", got)
	}
	if got := store.PinCount(b); got != 1 {
		t.Fatalf("PinCount(b) = %d, want 1", got)
	}
	l.unpinArgs(spec)
	if store.PinCount(a) != 0 || store.PinCount(b) != 0 {
		t.Fatalf("unpinArgs left pins: a=%d b=%d", store.PinCount(a), store.PinCount(b))
	}
	// Failure path: the gather fails at the last arg, after the aliased ref
	// was pinned twice; the unwind must release both of those pins.
	store.Delete(b)
	if _, missing := l.gatherArgs(spec); !missing {
		t.Fatal("gatherArgs succeeded without b resident")
	}
	if got := store.PinCount(a); got != 0 {
		t.Fatalf("unwind left %d pins on the aliased arg", got)
	}
	if got := store.PinCount(b); got != 0 {
		t.Fatalf("unwind left %d pins on the missing arg", got)
	}
}
