package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gcs"
	"repro/internal/types"
)

// fakeBackend implements Backend over a bare control plane and a local map,
// isolating core's logic from the node stack.
type fakeBackend struct {
	ctrl *gcs.Store
	node types.NodeID

	mu      sync.Mutex
	objects map[types.ObjectID][]byte
	specs   []types.TaskSpec
	// follows holds the Waits' watches (Follow), which PutObject tells.
	follows map[types.ObjectID][]fakeFollow
}

type fakeFollow struct {
	told chan<- Followed
	i    int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		ctrl:    gcs.NewStore(2),
		node:    types.NodeID(types.DeriveTaskID(types.NilTaskID, 31337)),
		objects: make(map[types.ObjectID][]byte),
		follows: make(map[types.ObjectID][]fakeFollow),
	}
}

func (f *fakeBackend) SubmitTask(spec types.TaskSpec) error {
	rets := spec.AppendReturns(nil)
	f.mu.Lock()
	f.specs = append(f.specs, spec)
	f.mu.Unlock()
	f.ctrl.AddTask(types.TaskState{Spec: spec})
	for _, id := range rets {
		f.ctrl.EnsureObject(id, spec.ID)
	}
	return nil
}

func (f *fakeBackend) ResolveObject(ctx context.Context, id types.ObjectID) ([]byte, error) {
	deadline := time.After(5 * time.Second)
	for {
		f.mu.Lock()
		data, ok := f.objects[id]
		f.mu.Unlock()
		if ok {
			return data, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline:
			return nil, errors.New("fake: object never arrived")
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *fakeBackend) ObjectLocal(id types.ObjectID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.objects[id]
	return ok
}

func (f *fakeBackend) ObjectsLocal(ids []types.ObjectID, local []bool) int {
	n := 0
	for i, id := range ids {
		if !local[i] && f.ObjectLocal(id) {
			local[i] = true
			n++
		}
	}
	return n
}

func (f *fakeBackend) PutObject(id types.ObjectID, data []byte) error {
	f.mu.Lock()
	f.objects[id] = data
	for _, w := range f.follows[id] {
		w.told <- Followed{Index: w.i}
	}
	delete(f.follows, id)
	f.mu.Unlock()
	f.ctrl.AddObjectLocation(id, f.node, int64(len(data)))
	return nil
}

func (f *fakeBackend) Follow(ids []types.ObjectID, which []int, told chan<- Followed) func() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, i := range which {
		if _, ok := f.objects[ids[i]]; ok {
			told <- Followed{Index: i}
		} else {
			f.follows[ids[i]] = append(f.follows[ids[i]], fakeFollow{told, i})
		}
	}
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, i := range which {
			f.follows[ids[i]] = slices.DeleteFunc(f.follows[ids[i]], func(w fakeFollow) bool { return w.told == told })
		}
	}
}

func (f *fakeBackend) Control() gcs.API     { return f.ctrl }
func (f *fakeBackend) NodeID() types.NodeID { return f.node }

func (f *fakeBackend) submitted() []types.TaskSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]types.TaskSpec(nil), f.specs...)
}

func TestSubmitDerivesDeterministicIDs(t *testing.T) {
	root := types.DeriveTaskID(types.NilTaskID, 1)
	b1 := newFakeBackend()
	c1 := NewClientWithRoot(b1, root)
	b2 := newFakeBackend()
	c2 := NewClientWithRoot(b2, root)
	r1, err := c1.Submit1(Call{Function: "f", Args: []types.Arg{Val(1)}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Submit1(Call{Function: "f", Args: []types.Arg{Val(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != r2.ID {
		t.Fatal("same root+index produced different object IDs — replay broken")
	}
}

func TestSubmitSequentialIDsDistinct(t *testing.T) {
	c := NewClientWithRoot(newFakeBackend(), types.DeriveTaskID(types.NilTaskID, 2))
	a, _ := c.Submit1(Call{Function: "f"})
	b, _ := c.Submit1(Call{Function: "f"})
	if a.ID == b.ID {
		t.Fatal("sequential submissions share object IDs")
	}
}

func TestSubmitDefaults(t *testing.T) {
	b := newFakeBackend()
	c := NewClient(b)
	if _, err := c.Submit1(Call{Function: "f"}); err != nil {
		t.Fatal(err)
	}
	specs := b.submitted()
	if len(specs) != 1 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].NumReturns != 1 {
		t.Fatalf("NumReturns = %d", specs[0].NumReturns)
	}
	if specs[0].Resources[types.ResCPU] != 1 {
		t.Fatalf("default resources = %v", specs[0].Resources)
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	c := NewClient(newFakeBackend())
	if _, err := c.Submit(Call{}); err == nil {
		t.Fatal("empty function accepted")
	}
	if _, err := c.Submit(Call{Function: "f", Resources: types.Resources{"CPU": -1}}); err == nil {
		t.Fatal("negative resources accepted")
	}
}

func TestGetReturnsValueAndErrors(t *testing.T) {
	b := newFakeBackend()
	c := NewClient(b)
	ref, _ := c.Submit1(Call{Function: "f"})
	// Simulate a worker storing the return.
	if err := b.PutObject(ref.ID, codec.MustEncode(99)); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Get(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.DecodeAs[int](raw)
	if err != nil || v != 99 {
		t.Fatalf("got %d, %v", v, err)
	}
	// Error payload surfaces as ErrTaskFailed.
	ref2, _ := c.Submit1(Call{Function: "f"})
	_ = b.PutObject(ref2.ID, codec.EncodeError("sad"))
	if _, err := c.Get(context.Background(), ref2); !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v", err)
	}
	// Nil ref is a programming error.
	if _, err := c.Get(context.Background(), ObjectRef{}); err == nil {
		t.Fatal("nil ref accepted")
	}
}

func TestPutRoundTrip(t *testing.T) {
	b := newFakeBackend()
	c := NewClient(b)
	ref, err := c.Put([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Get(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.DecodeAs[[]string](raw)
	if err != nil || len(v) != 2 || v[1] != "y" {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestPutIDsDistinct(t *testing.T) {
	c := NewClient(newFakeBackend())
	a, _ := c.Put(1)
	b, _ := c.Put(1)
	if a.ID == b.ID {
		t.Fatal("puts share IDs")
	}
}

func TestWaitCountsAndSubsets(t *testing.T) {
	b := newFakeBackend()
	c := NewClient(b)
	refs := make([]ObjectRef, 3)
	for i := range refs {
		refs[i], _ = c.Submit1(Call{Function: "f"})
	}
	_ = b.PutObject(refs[0].ID, codec.MustEncode(0))
	_ = b.PutObject(refs[2].ID, codec.MustEncode(2))
	ready, pending, err := c.Wait(context.Background(), refs, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 2 || len(pending) != 1 || pending[0].ID != refs[1].ID {
		t.Fatalf("ready=%v pending=%v", ready, pending)
	}
	// numReturns out of range.
	if _, _, err := c.Wait(context.Background(), refs, 4, 0); err == nil {
		t.Fatal("out-of-range numReturns accepted")
	}
	// Zero timeout returns immediately with current state.
	ready, _, err = c.Wait(context.Background(), refs, 3, 0)
	if err != nil || len(ready) != 2 {
		t.Fatalf("zero-timeout wait: %v %v", ready, err)
	}
}

func TestWaitUnblocksOnLateArrival(t *testing.T) {
	b := newFakeBackend()
	c := NewClient(b)
	ref, _ := c.Submit1(Call{Function: "f"})
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = b.PutObject(ref.ID, codec.MustEncode(1))
	}()
	start := time.Now()
	ready, _, err := c.Wait(context.Background(), []ObjectRef{ref}, 1, 5*time.Second)
	if err != nil || len(ready) != 1 {
		t.Fatalf("wait: %v %v", ready, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("wait missed the ready notification")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register("f", func(tc *TaskContext, args [][]byte) ([][]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Register("f", func(tc *TaskContext, args [][]byte) ([][]byte, error) { return nil, nil })
}

func TestRegistryLookupAndNames(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Lookup("missing"); ok {
		t.Fatal("found unregistered function")
	}
	reg.Register("a", func(tc *TaskContext, args [][]byte) ([][]byte, error) { return nil, nil })
	if _, ok := reg.Lookup("a"); !ok {
		t.Fatal("lost registration")
	}
	if len(reg.Names()) != 1 {
		t.Fatal("Names wrong")
	}
}

// eventLender records what a TaskContext lends, and for which task.
type eventLender struct {
	mu     sync.Mutex
	events []bool
	tasks  []types.TaskID
}

func (l *eventLender) Lend(spec *types.TaskSpec, blocked bool) {
	l.mu.Lock()
	l.events = append(l.events, blocked)
	l.tasks = append(l.tasks, spec.ID)
	l.mu.Unlock()
}

func TestTaskContextBlockHookBrackets(t *testing.T) {
	b := newFakeBackend()
	spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, 5), Function: "f", NumReturns: 1}
	lender := &eventLender{}
	tc := new(TaskContext)
	tc.Init(context.Background(), b, &spec, lender)
	ref, _ := tc.Submit1(Call{Function: "g"})
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = b.PutObject(ref.ID, codec.MustEncode(1))
	}()
	if _, err := tc.Get(ref); err != nil {
		t.Fatal(err)
	}
	lender.mu.Lock()
	defer lender.mu.Unlock()
	if events := lender.events; len(events) != 2 || !events[0] || events[1] {
		t.Fatalf("block hook events = %v, want [true false]", events)
	}
	for _, id := range lender.tasks {
		if id != spec.ID {
			t.Fatalf("lent task %v, want %v", id, spec.ID)
		}
	}
}

func TestTaskContextChildParentage(t *testing.T) {
	b := newFakeBackend()
	spec := types.TaskSpec{ID: types.DeriveTaskID(types.NilTaskID, 6), Function: "f", NumReturns: 1}
	tc := new(TaskContext)
	tc.Init(context.Background(), b, &spec, nil)
	if _, err := tc.Submit1(Call{Function: "g"}); err != nil {
		t.Fatal(err)
	}
	specs := b.submitted()
	if len(specs) != 1 || specs[0].Parent != spec.ID {
		t.Fatalf("child parent = %v, want %v", specs[0].Parent, spec.ID)
	}
	if specs[0].ID != types.DeriveTaskID(spec.ID, 1) {
		t.Fatal("child ID not derived from parent")
	}
}

func TestValPanicsOnUnserializable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Val of a channel did not panic")
		}
	}()
	Val(make(chan int))
}

// refCountingBackend wraps fakeBackend with the optional RefCounted
// interface, recording retains/releases.
type refCountingBackend struct {
	*fakeBackend
	mu       sync.Mutex
	retained map[types.ObjectID]int
}

func newRefCountingBackend() *refCountingBackend {
	return &refCountingBackend{fakeBackend: newFakeBackend(), retained: make(map[types.ObjectID]int)}
}

func (r *refCountingBackend) RetainObject(id types.ObjectID) {
	r.mu.Lock()
	r.retained[id]++
	r.mu.Unlock()
}

func (r *refCountingBackend) ReleaseObject(id types.ObjectID) {
	r.mu.Lock()
	r.retained[id]--
	r.mu.Unlock()
}

func (r *refCountingBackend) count(id types.ObjectID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retained[id]
}

// TestSubmitAndPutRetainFutures: on a lifetime-aware backend every future
// returned to the caller holds a reference until explicitly released.
func TestSubmitAndPutRetainFutures(t *testing.T) {
	b := newRefCountingBackend()
	cl := NewClient(b)

	refs, err := cl.Submit(Call{Function: "f", NumReturns: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if b.count(r.ID) != 1 {
			t.Fatalf("submit return %v retained %d times, want 1", r, b.count(r.ID))
		}
	}
	put, err := cl.Put(42)
	if err != nil {
		t.Fatal(err)
	}
	if b.count(put.ID) != 1 {
		t.Fatalf("put retained %d times, want 1", b.count(put.ID))
	}

	cl.Release(refs[0], put)
	if b.count(refs[0].ID) != 0 || b.count(put.ID) != 0 {
		t.Fatal("release did not drop references")
	}
	if b.count(refs[1].ID) != 1 {
		t.Fatal("release touched an unreleased future")
	}
	// Nil refs are ignored.
	cl.Release(ObjectRef{})
}

// TestReleaseOnPlainBackendIsNoop: backends without lifetime support keep
// the original semantics.
func TestReleaseOnPlainBackendIsNoop(t *testing.T) {
	cl := NewClient(newFakeBackend())
	ref, err := cl.Put("x")
	if err != nil {
		t.Fatal(err)
	}
	cl.Release(ref) // must not panic
}

// TestReleaseTyped drops references through the typed helper.
func TestReleaseTyped(t *testing.T) {
	b := newRefCountingBackend()
	cl := NewClient(b)
	refs, err := cl.Submit(Call{Function: "f"})
	if err != nil {
		t.Fatal(err)
	}
	ReleaseTyped(cl, Ref[int]{Ref: refs[0]})
	if b.count(refs[0].ID) != 0 {
		t.Fatal("typed release did not drop the reference")
	}
}
