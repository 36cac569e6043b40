package worker

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/types"
)

// stubBackend is a minimal core.Backend for executor tests.
type stubBackend struct {
	ctrl *gcs.Store
	node types.NodeID
	led  *lifetime.TaskLedger
	rec  *ledgerRecorder

	mu      sync.Mutex
	objects map[types.ObjectID][]byte
}

func newStub() *stubBackend {
	return &stubBackend{
		ctrl:    gcs.NewStore(2),
		node:    types.NodeID(types.DeriveTaskID(types.NilTaskID, 41000)),
		objects: make(map[types.ObjectID][]byte),
	}
}

func (s *stubBackend) SubmitTask(spec types.TaskSpec) error { return nil }
func (s *stubBackend) ResolveObject(ctx context.Context, id types.ObjectID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.objects[id]; ok {
		return d, nil
	}
	return nil, errors.New("stub: missing")
}
func (s *stubBackend) ObjectLocal(id types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[id]
	return ok
}

func (s *stubBackend) ObjectsLocal(ids []types.ObjectID, local []bool) int {
	n := 0
	for i, id := range ids {
		if !local[i] && s.ObjectLocal(id) {
			local[i] = true
			n++
		}
	}
	return n
}
func (s *stubBackend) PutObject(id types.ObjectID, data []byte) error {
	s.mu.Lock()
	s.objects[id] = data
	s.mu.Unlock()
	s.ctrl.AddObjectLocation(id, s.node, int64(len(data)))
	return nil
}
func (s *stubBackend) Follow([]types.ObjectID, []int, chan<- core.Followed) func() { return func() {} }
func (s *stubBackend) Control() gcs.API                                            { return s.ctrl }
func (s *stubBackend) NodeID() types.NodeID                                        { return s.node }

func mkSpec(i uint64, fn string, returns int) types.TaskSpec {
	return types.TaskSpec{
		ID:         types.DeriveTaskID(types.NilTaskID, i),
		Function:   fn,
		NumReturns: returns,
		Resources:  types.CPU(1),
	}
}

// setup builds an executor over the shared sync-mode ledger fixture; tests
// admit their task through b.admit before executing it, and b.rec holds
// every flush the executor's stamps produced.
func setup(t *testing.T, hooks Hooks) (*Executor, *stubBackend, *core.Registry) {
	t.Helper()
	b := newStub()
	b.rec = &ledgerRecorder{API: b.ctrl}
	b.led = ledgertest.New(b.rec, b.node)
	reg := core.NewRegistry()
	ex := NewExecutor(b.node, b.ctrl, reg, b, b.led, hooks)
	return ex, b, reg
}

func (s *stubBackend) admit(spec types.TaskSpec) { ledgertest.Admit(s.led, spec) }

func TestExecuteStoresReturnsAndStatus(t *testing.T) {
	ex, b, reg := setup(t, Hooks{})
	reg.Register("two", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(1), codec.MustEncode(2)}, nil
	})
	spec := mkSpec(1, "two", 2)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)

	for i := 0; i < 2; i++ {
		if !b.ObjectLocal(spec.ReturnID(i)) {
			t.Fatalf("return %d not stored", i)
		}
	}
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFinished {
		t.Fatalf("status = %v", st.Status)
	}
	if ex.Executed() != 1 || ex.Failed() != 0 {
		t.Fatal("counters wrong")
	}
}

func TestUnregisteredFunctionFails(t *testing.T) {
	ex, b, _ := setup(t, Hooks{})
	spec := mkSpec(2, "ghost", 1)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFailed {
		t.Fatalf("status = %v", st.Status)
	}
	// Error payload must be visible through the return object.
	data, _ := b.ResolveObject(context.Background(), spec.ReturnID(0))
	if msg, isErr := codec.AsError(data); !isErr || msg == "" {
		t.Fatal("no error payload stored")
	}
}

func TestWrongReturnCountFails(t *testing.T) {
	ex, b, reg := setup(t, Hooks{})
	reg.Register("liar", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(1)}, nil // declares 2
	})
	spec := mkSpec(3, "liar", 2)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFailed {
		t.Fatalf("status = %v", st.Status)
	}
}

func TestPanicIsolated(t *testing.T) {
	ex, b, reg := setup(t, Hooks{})
	reg.Register("boom", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		panic("explosive")
	})
	spec := mkSpec(4, "boom", 1)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // must not panic the test
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFailed || st.Error == "" {
		t.Fatalf("state = %+v", st)
	}
	if ex.Failed() != 1 {
		t.Fatal("failed counter wrong")
	}
}

func TestRetryPathResubmits(t *testing.T) {
	resubmitted := make(chan types.TaskSpec, 4)
	ex, b, reg := setup(t, Hooks{
		Resubmit: func(spec types.TaskSpec) { resubmitted <- spec },
	})
	reg.Register("flaky", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return nil, errors.New("transient")
	})
	spec := mkSpec(5, "flaky", 1)
	spec.MaxRetries = 2
	b.admit(spec)

	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // attempt 1 -> retry
	select {
	case got := <-resubmitted:
		if got.ID != spec.ID {
			t.Fatal("wrong spec resubmitted")
		}
	default:
		t.Fatal("no resubmission after first failure")
	}
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskPending || st.Retries != 1 {
		t.Fatalf("after retry 1: %+v", st)
	}

	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // attempt 2 -> retry
	<-resubmitted
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // attempt 3 -> exhausted
	select {
	case <-resubmitted:
		t.Fatal("resubmitted past MaxRetries")
	default:
	}
	st, _ = b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFailed {
		t.Fatalf("final status = %v", st.Status)
	}
}

func TestBlockHookReachesHooks(t *testing.T) {
	ex, b, reg := setup(t, Hooks{})
	lender := &eventLender{}
	// The task gets a future that is already stored remotely-invisible;
	// put it before Get so ResolveObject succeeds immediately after the
	// hook fires.
	reg.Register("getter", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		child, err := tc.Submit1(core.Call{Function: "unused"})
		if err != nil {
			return nil, err
		}
		_ = b.PutObject(child.ID, codec.MustEncode(7))
		if _, err := tc.Get(child); err != nil {
			return nil, err
		}
		lender.mu.Lock()
		lender.returned = len(lender.events)
		lender.mu.Unlock()
		return [][]byte{codec.MustEncode(0)}, nil
	})
	spec := mkSpec(6, "getter", 1)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), lender, nil, &spec, nil)
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFinished {
		t.Fatalf("status = %v err=%s", st.Status, st.Error)
	}
	lender.mu.Lock()
	defer lender.mu.Unlock()
	// ObjectLocal was true at Get time, so the fast path may skip blocking;
	// either zero or a balanced [true false] sequence is acceptable while
	// the function runs. Once it returns, the task lends its resources for
	// good: one more true, and nothing after it.
	events := lender.events
	if lender.returned%2 != 0 || len(events) != lender.returned+1 || !events[len(events)-1] {
		t.Fatalf("block events %v, %d of them while the function ran", events, lender.returned)
	}
}

// eventLender records the Lend calls of one task.
type eventLender struct {
	mu       sync.Mutex
	events   []bool
	returned int // events before the function returned
}

func (l *eventLender) Lend(_ *types.TaskSpec, blocked bool) {
	l.mu.Lock()
	l.events = append(l.events, blocked)
	l.mu.Unlock()
}

func TestActiveCounter(t *testing.T) {
	ex, b, reg := setup(t, Hooks{})
	probe := make(chan int64, 1)
	reg.Register("probe", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		probe <- ex.Active()
		return [][]byte{codec.MustEncode(0)}, nil
	})
	spec := mkSpec(7, "probe", 1)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)
	if got := <-probe; got != 1 {
		t.Fatalf("active during exec = %d", got)
	}
	if ex.Active() != 0 {
		t.Fatal("active not restored")
	}
}

func TestNilReturnBecomesNullPayload(t *testing.T) {
	ex, b, reg := setup(t, Hooks{})
	reg.Register("nilret", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{nil}, nil
	})
	spec := mkSpec(8, "nilret", 1)
	b.admit(spec)
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)
	if !b.ObjectLocal(spec.ReturnID(0)) {
		t.Fatal("nil return not stored")
	}
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFinished {
		t.Fatalf("status = %v", st.Status)
	}
}

// ledgerRecorder wraps the store to capture every ModifyTaskStates batch the
// executor's ledger stamps produce.
type ledgerRecorder struct {
	gcs.API

	mu     sync.Mutex
	deltas []types.TaskStateDelta
}

func (r *ledgerRecorder) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	r.mu.Lock()
	r.deltas = append(r.deltas, deltas...)
	r.mu.Unlock()
	return r.API.ModifyTaskStates(node, deltas, op)
}

// TestRetryCrashWindowClosed is the regression test for the retry crash
// window (DESIGN.md §13): a retry that bumped the count in one control-plane
// write and reset the task to PENDING in another let a node dying between
// them burn an attempt without ever rescheduling the task. Both must ride
// ONE sequenced delta: every delta that carries a retry bump also carries
// the PENDING reset, so there is no instant at which the table holds the
// bump without the reset.
func TestRetryCrashWindowClosed(t *testing.T) {
	resubmitted := make(chan types.TaskSpec, 4)
	ex, b, reg := setup(t, Hooks{
		Resubmit: func(spec types.TaskSpec) { resubmitted <- spec },
	})

	reg.Register("flaky", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return nil, errors.New("transient")
	})
	spec := mkSpec(9, "flaky", 1)
	spec.MaxRetries = 2
	b.admit(spec)

	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // attempt 1 -> retry
	select {
	case got := <-resubmitted:
		if got.ID != spec.ID {
			t.Fatal("wrong spec resubmitted")
		}
	default:
		t.Fatal("no resubmission after first failure")
	}
	st, _ := b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskPending || st.Retries != 1 {
		t.Fatalf("after retry 1: status=%v retries=%d", st.Status, st.Retries)
	}

	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // attempt 2 -> retry
	<-resubmitted
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil) // attempt 3 -> exhausted
	select {
	case <-resubmitted:
		t.Fatal("resubmitted past MaxRetries")
	default:
	}
	st, _ = b.ctrl.GetTask(spec.ID)
	if st.Status != types.TaskFailed || st.Retries != 3 {
		t.Fatalf("final state: status=%v retries=%d", st.Status, st.Retries)
	}
	if msg, isErr := codec.AsError(mustResolve(t, b, spec.ReturnID(0))); !isErr || msg == "" {
		t.Fatal("no error payload stored for exhausted retries")
	}

	// The crash-window invariant: a delta bumping Retries must carry the
	// PENDING reset (or be terminal, where the count rides the failure) in
	// the SAME delta. Any bump-only delta reopens the window.
	rec := b.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	bumps := 0
	for _, d := range rec.deltas {
		if d.ID != spec.ID {
			continue
		}
		if d.Retries > 0 && d.Status == types.TaskPending {
			bumps++
		}
		if d.Retries > 0 && d.Status != types.TaskPending && !d.Status.Terminal() && d.Status != types.TaskRunning {
			t.Fatalf("retry bump without reset in one delta: %+v", d)
		}
	}
	if bumps < 2 {
		t.Fatalf("expected >=2 atomic bump+reset deltas, saw %d", bumps)
	}

	// Zombie tenure: the FAILED ack dropped the record from the ledger, so
	// a straggler execution finds the task unowned and vanishes silently —
	// no resubmit, no counter bump, no table write.
	failedBefore := ex.Failed()
	ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)
	if ex.Failed() != failedBefore {
		t.Fatal("zombie execution bumped the failure counter")
	}
	select {
	case <-resubmitted:
		t.Fatal("zombie execution resubmitted")
	default:
	}
	if st2, _ := b.ctrl.GetTask(spec.ID); st2.Status != types.TaskFailed {
		t.Fatalf("zombie execution disturbed the table: %v", st2.Status)
	}
}

func mustResolve(t *testing.T, b *stubBackend, id types.ObjectID) []byte {
	t.Helper()
	data, err := b.ResolveObject(context.Background(), id)
	if err != nil {
		t.Fatalf("resolve %v: %v", id, err)
	}
	return data
}

// TestReturnsAreOfferedForDeliveryBeforeTheyAreStored: every return value —
// and every error payload of a terminal failure — reaches the Deliver hook
// while the object is still unpublished and the task not yet terminal, so
// the task's origin cannot learn of this node's copy, and pull it, before
// the delivered one arrives.
func TestReturnsAreOfferedForDeliveryBeforeTheyAreStored(t *testing.T) {
	var b *stubBackend
	offered := make(map[types.ObjectID][]byte)
	ex, b, reg := setup(t, Hooks{Deliver: func(origin types.NodeID, task types.TaskID, trace uint64, id types.ObjectID, data []byte) {
		if b.ObjectLocal(id) {
			t.Errorf("%v was stored before it was offered for delivery", id)
		}
		if st, _ := b.ctrl.GetTask(task); st.Status.Terminal() {
			t.Errorf("task %v was %v before %v was offered for delivery", task, st.Status, id)
		}
		offered[id] = data
	}})
	reg.Register("two", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(1), nil}, nil
	})
	reg.Register("boom", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		return nil, errors.New("kaput")
	})
	ok, bad := mkSpec(30, "two", 2), mkSpec(31, "boom", 1)
	for _, spec := range []types.TaskSpec{ok, bad} {
		b.admit(spec)
		ex.Execute(context.Background(), new(core.TaskContext), nil, nil, &spec, nil)
	}
	for _, id := range []types.ObjectID{ok.ReturnID(0), ok.ReturnID(1), bad.ReturnID(0)} {
		stored, _ := b.ResolveObject(context.Background(), id)
		if got, was := offered[id]; !was || string(got) != string(stored) || len(stored) == 0 {
			t.Fatalf("%v: offered %q (%v), stored %q", id, got, was, stored)
		}
	}
	if msg, isErr := codec.AsError(offered[bad.ReturnID(0)]); !isErr || msg != "kaput" {
		t.Fatalf("failed task offered %q, want its error payload", offered[bad.ReturnID(0)])
	}
}
