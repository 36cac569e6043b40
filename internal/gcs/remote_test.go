package gcs

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// remoteFixture serves a Store over an in-process transport and returns an
// API-compatible Remote plus the backing Store.
func remoteFixture(t *testing.T) (*Remote, *Store) {
	t.Helper()
	store := NewStore(4)
	srv := transport.NewServer()
	RegisterService(srv, store)
	nw := transport.NewInproc(0)
	l, err := nw.Listen("gcs", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err := nw.Dial("gcs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return NewRemote(client), store
}

// remoteOverTCP is the same fixture over real sockets.
func remoteOverTCP(t *testing.T) (*Remote, *Store) {
	t.Helper()
	store := NewStore(4)
	srv := transport.NewServer()
	RegisterService(srv, store)
	l, err := transport.TCP{}.Listen("127.0.0.1:39481", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err := transport.TCP{}.Dial("127.0.0.1:39481")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return NewRemote(client), store
}

func exerciseAPI(t *testing.T, api API, backing *Store) {
	t.Helper()
	// Clock.
	if api.NowNs() <= 0 {
		t.Fatal("remote clock dead")
	}

	// Task table.
	st := mkTask(500)
	if !api.AddTask(st) {
		t.Fatal("AddTask failed")
	}
	if api.AddTask(st) {
		t.Fatal("duplicate AddTask succeeded remotely")
	}
	got, ok := api.GetTask(st.Spec.ID)
	if !ok || got.Spec.Function != "f" {
		t.Fatalf("GetTask: %+v %v", got, ok)
	}
	n := nodeID(50)
	running := delta(st.Spec.ID, 1, types.TaskRunning)
	running.Node, running.Retries = n, 1
	if failed := api.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{running}, 0); len(failed) != 0 {
		t.Fatalf("ModifyTaskStates failed for %v", failed)
	}
	got, _ = api.GetTask(st.Spec.ID)
	if got.Status != types.TaskRunning || got.Node != n || got.Retries != 1 {
		t.Fatalf("after ModifyTaskStates: %+v", got)
	}
	if !api.CASTaskStatus(st.Spec.ID, []types.TaskStatus{types.TaskRunning}, types.TaskFinished) {
		t.Fatal("CAS lost")
	}
	if api.CASTaskStatus(st.Spec.ID, []types.TaskStatus{types.TaskRunning}, types.TaskFinished) {
		t.Fatal("CAS from wrong state won")
	}
	if len(api.Tasks()) != 1 {
		t.Fatal("Tasks scan wrong")
	}

	// Object table with subscription.
	obj := st.Spec.ReturnID(0)
	api.EnsureObject(obj, st.Spec.ID)
	sub := api.SubscribeObjectReady(obj)
	defer sub.Close()
	api.AddObjectLocation(obj, n, 64)
	select {
	case <-sub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("object-ready not delivered over transport")
	}
	info, ok := api.GetObject(obj)
	if !ok || info.State != types.ObjectReady || info.Size != 64 {
		t.Fatalf("GetObject: %+v %v", info, ok)
	}
	api.RemoveObjectLocation(obj, n)
	info, _ = api.GetObject(obj)
	if info.State != types.ObjectLost {
		t.Fatalf("state after removal: %v", info.State)
	}
	if len(api.Objects()) != 1 {
		t.Fatal("Objects scan wrong")
	}

	// Spill pub/sub across the wire.
	spillSub := api.SubscribeSpill()
	defer spillSub.Close()
	api.PublishSpill(st.Spec)
	select {
	case raw := <-spillSub.C():
		spec, err := DecodeSpillSpec(raw)
		if err != nil || spec.ID != st.Spec.ID {
			t.Fatalf("spill payload: %v %v", spec.ID, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("spill not delivered over transport")
	}

	// Node table.
	nodeSub := api.SubscribeNodeEvents()
	defer nodeSub.Close()
	api.RegisterNode(types.NodeInfo{ID: n, Addr: "w1", Total: types.CPU(2)})
	select {
	case <-nodeSub.C():
	case <-time.After(2 * time.Second):
		t.Fatal("node event not delivered")
	}
	api.Heartbeat(n, 3, types.CPU(1), types.StoreStats{UsedBytes: 64})
	ninfo, ok := api.GetNode(n)
	if !ok || ninfo.QueueLen != 3 || ninfo.Store.UsedBytes != 64 {
		t.Fatalf("GetNode: %+v %v", ninfo, ok)
	}
	api.MarkNodeDead(n)
	ninfo, _ = api.GetNode(n)
	if ninfo.Alive {
		t.Fatal("node still alive")
	}
	if len(api.Nodes()) != 1 {
		t.Fatal("Nodes scan wrong")
	}

	// Functions + events.
	api.RegisterFunction(FunctionInfo{Name: "g", NumReturns: 1})
	if !api.HasFunction("g") || len(api.Functions()) != 1 {
		t.Fatal("function table wrong")
	}
	api.LogEvent(types.Event{Kind: "custom", Node: n})
	found := false
	for _, ev := range api.Events() {
		if ev.Kind == "custom" {
			found = true
		}
	}
	if !found {
		t.Fatal("event lost")
	}

	// The remote writes must be visible in the backing store directly.
	if _, ok := backing.GetTask(st.Spec.ID); !ok {
		t.Fatal("remote write did not reach backing store")
	}
}

func TestRemoteAPIOverInproc(t *testing.T) {
	api, backing := remoteFixture(t)
	exerciseAPI(t, api, backing)
}

func TestRemoteAPIOverTCP(t *testing.T) {
	api, backing := remoteOverTCP(t)
	exerciseAPI(t, api, backing)
}

func TestRemoteTaskStatusSubscription(t *testing.T) {
	api, _ := remoteFixture(t)
	st := mkTask(600)
	api.AddTask(st)
	sub := api.SubscribeTaskStatus(st.Spec.ID)
	defer sub.Close()
	api.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{delta(st.Spec.ID, 1, types.TaskFinished)}, 0)
	select {
	case msg := <-sub.C():
		if types.TaskStatus(msg[0]) != types.TaskFinished {
			t.Fatalf("status payload %v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("status not delivered")
	}
}

func TestRemoteSubCloseIdempotent(t *testing.T) {
	api, _ := remoteFixture(t)
	sub := api.SubscribeSpill()
	sub.Close()
	sub.Close()
}
