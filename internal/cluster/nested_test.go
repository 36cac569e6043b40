package cluster

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/core"
	"repro/internal/types"
)

// goroutineID reads the running goroutine's ID off its stack header
// ("goroutine 17 [running]:"): which executor a task body runs on.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestNestedGetChainOnOneCPU: tasks that create tasks (R3) cannot deadlock a
// node, however few its resources. Each task of a depth-8 chain submits the
// next and blocks in Get on it, on a node with one CPU: the blocked task
// lends its CPU to its child, and the child runs on an executor of its own,
// since every executor is either parked or still running its task — none is
// handed a task while the one it runs is blocked. Every task of the chain
// ends in one terminal state, the lent CPU is back in the node's books, and
// Shutdown leaves no goroutine behind.
func TestNestedGetChainOnOneCPU(t *testing.T) {
	const depth = 8
	var (
		mu      sync.Mutex
		running = map[uint64]int{} // goroutine → depth of the task body it runs
		reused  []string
		tasks   []types.TaskID
	)
	reg := core.NewRegistry()
	var chain core.Func1[int, int]
	chain = core.Register1(reg, "nested.chain", func(tc *core.TaskContext, n int) (int, error) {
		g := goroutineID()
		mu.Lock()
		if outer, ok := running[g]; ok {
			reused = append(reused, "task "+strconv.Itoa(n)+" started on the executor of blocked task "+strconv.Itoa(outer))
		}
		running[g] = n
		tasks = append(tasks, tc.Spec().ID)
		mu.Unlock()
		defer func() {
			mu.Lock()
			delete(running, g)
			mu.Unlock()
		}()
		if n == 1 {
			return 1, nil
		}
		child, err := chain.Remote(tc, n-1)
		if err != nil {
			return 0, err
		}
		v, err := core.TaskGet(tc, child)
		return v + 1, err
	})

	baseline := runtime.NumGoroutine()
	c, err := New(Config{Nodes: 1, NodeResources: types.CPU(1), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Driver()
	ref, err := chain.Remote(d, depth)
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	v, err := core.Get(testCtx(t), d, ref)
	if err != nil || v != depth {
		// A deadlocked node's Shutdown waits on the deadlock: leave it.
		t.Fatalf("depth-%d chain on one CPU: Get = %d, %v", depth, v, err)
	}
	mu.Lock()
	ids := append([]types.TaskID(nil), tasks...)
	mu.Unlock()
	if len(ids) != depth {
		t.Fatalf("%d task bodies ran for a depth-%d chain", len(ids), depth)
	}
	check := chaostest.New(c.API)
	check.AwaitTaskConservation(t, 10*time.Second, ids)
	check.AwaitQuiescentBooks(t, 5*time.Second, map[string]chaostest.Books{"node-0": c.Node(0).Scheduler()})
	c.Shutdown()
	mu.Lock()
	defer mu.Unlock()
	if len(reused) > 0 {
		t.Fatalf("an executor was handed a task while its own was blocked: %v", reused)
	}
	waitFor(t, 10*time.Second, "the goroutines to be back at the baseline after Shutdown", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
