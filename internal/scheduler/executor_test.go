package scheduler

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/lifetime/ledgertest"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// gatedPool is a started Local with width CPUs whose tasks hold their
// executors until the test lets them go, read through the metrics an
// operator sees: scheduler.executors.started, .idle and .keep. Goroutine
// counts are bounds, not equalities: a previous test's goroutines may still
// be exiting when the baselines are read. Two are read: before NewLocal,
// which Stop returns to, and once Start has started the dependency table's
// goroutine and its feed, which the bounds on executors count from.
type gatedPool struct {
	t                *testing.T
	l                *Local
	reg              *metrics.Registry
	before, baseline int
	// gate, when set, is what a task waits on, and running counts it in
	// before it waits. done takes the ID of each finished task's goroutine.
	mu      sync.Mutex
	gate    chan struct{}
	running sync.WaitGroup
	done    chan uint64
	next    uint64
	stopped bool
}

func newGatedPool(t *testing.T, width int, clock func() int64) *gatedPool {
	ctrl := gcs.NewStore(4)
	nid := tNode(1)
	total := types.CPU(float64(width))
	ctrl.RegisterNode(types.NodeInfo{ID: nid, Addr: "x", Total: total})
	store := objectstore.New(nid, ctrl, 0)
	led := ledgertest.New(ctrl, nid)
	led.SetClock(clock)
	p := &gatedPool{t: t, reg: metrics.NewRegistry(), before: runtime.NumGoroutine(), done: make(chan uint64, width)}
	p.l = NewLocal(LocalConfig{Node: nid, Total: total, Ctrl: ctrl, Store: store, Ledger: led, SpillThreshold: SpillNever, Metrics: p.reg})
	t.Cleanup(func() {
		if !p.stopped {
			p.l.Stop()
		}
	})
	p.l.SetExec(func(context.Context, types.TaskSpec, [][]byte) {
		p.mu.Lock()
		g := p.gate
		p.mu.Unlock()
		if g != nil {
			p.running.Done()
			<-g
		}
		p.done <- goid()
	})
	p.l.Start()
	p.baseline = runtime.NumGoroutine()
	return p
}

func (p *gatedPool) started() int64 {
	return p.reg.Snapshot().Counters["scheduler.executors.started"]
}

func (p *gatedPool) idle() int64 { return p.reg.Snapshot().Gauges["scheduler.executors.idle"] }

func (p *gatedPool) keep() int64 { return p.reg.Snapshot().Gauges["scheduler.executors.keep"] }

func (p *gatedPool) await(what string, cond func() bool) {
	p.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			p.t.Fatalf("never %s: %d executors started, %d parked, %d goroutines over baseline",
				what, p.started(), p.idle(), runtime.NumGoroutine()-p.baseline)
		}
	}
}

func (p *gatedPool) submit() {
	p.t.Helper()
	p.next++
	if err := p.l.Submit(tSpec(p.next, types.CPU(1)), false); err != nil {
		p.t.Fatal(err)
	}
}

// serial runs one task and returns the ID of the goroutine it ran on.
func (p *gatedPool) serial() uint64 {
	p.t.Helper()
	p.submit()
	return <-p.done
}

// together runs n tasks at once, each on its own executor, and waits until
// they have all finished and parked is the number of executors parked, the
// rest having exited.
func (p *gatedPool) together(n int, parked int64) {
	p.t.Helper()
	g := make(chan struct{})
	p.mu.Lock()
	p.gate = g
	p.mu.Unlock()
	p.running.Add(n)
	for i := 0; i < n; i++ {
		p.submit()
	}
	p.running.Wait()
	p.mu.Lock()
	p.gate = nil
	p.mu.Unlock()
	close(g)
	for i := 0; i < n; i++ {
		<-p.done
	}
	p.await("settled", func() bool {
		return p.l.Busy() == 0 && p.idle() == parked && runtime.NumGoroutine() <= p.baseline+int(parked)
	})
}

// stop stops the scheduler and checks that it leaves no executor behind.
func (p *gatedPool) stop() {
	p.t.Helper()
	p.l.Stop()
	p.stopped = true
	if n := p.idle(); n != 0 {
		p.t.Fatalf("%d executors parked after Stop, want 0", n)
	}
	p.await("back to the baseline after Stop", func() bool { return runtime.NumGoroutine() <= p.before })
}

// goid reads the calling goroutine's ID from its stack trace's header,
// "goroutine N [running]:".
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// TestExecutorBudget: a dispatched task runs on a parked executor goroutine
// when one is parked, and starts one only when none is (DESIGN.md §3.1). So a
// warmed scheduler starts no goroutine for a serial stream of tasks, a burst
// leaves as many parked as ran at once, and Stop leaves none. The clock
// stands still, so the pool's period never rolls (TestExecutorPoolFollowsPeak
// rolls it).
func TestExecutorBudget(t *testing.T) {
	const warm, serial, burst = 16, 1000, 72
	p := newGatedPool(t, burst, func() int64 { return int64(time.Second) })

	p.together(warm, warm)
	if n := p.started(); n != warm {
		t.Fatalf("%d tasks at once on a fresh scheduler started %d executors, want %d", warm, n, warm)
	}

	for i := 0; i < serial; i++ {
		p.serial()
	}
	if n := p.started() - warm; n != 0 {
		t.Fatalf("%d serial tasks on a warmed scheduler started %d executors, want 0", serial, n)
	}

	// The warm executors are reused; the burst starts the rest, and all of
	// them park once it is over.
	p.together(burst, burst)
	if n := p.started(); n != burst {
		t.Fatalf("a burst of %d after %d warm executors: %d started in all, want %d", burst, warm, n, burst)
	}

	p.stop()
}

// TestExecutorPoolFollowsPeak: the idle stack keeps as many executors parked
// as the current or the previous second ran at once, and a roll of the
// period gives back the least recently parked beyond that (DESIGN.md §3.1).
// So bursts of W tasks after the first start no executor; a serial task in
// the next second leaves W parked, and one in the second after leaves one,
// the executor that ran the task before. The test advances the ledger's
// clock, which the scheduler reads at dispatch, instead of sleeping.
func TestExecutorPoolFollowsPeak(t *testing.T) {
	const w, bursts = 100, 20
	var clock atomic.Int64
	clock.Store(int64(time.Second))
	p := newGatedPool(t, w, clock.Load)

	p.together(w, w)
	if n := p.started(); n != w {
		t.Fatalf("%d tasks at once on a fresh scheduler started %d executors, want %d", w, n, w)
	}
	for i := 0; i < bursts; i++ {
		p.together(w, w)
	}
	if n := p.started() - w; n != 0 {
		t.Fatalf("%d more bursts of %d started %d executors, want 0", bursts, w, n)
	}
	if n := p.keep(); n != w {
		t.Fatalf("the pool keeps %d executors after bursts of %d, want %d", n, w, w)
	}

	// The next second: its peak is 1, the last one's is W.
	clock.Add(int64(time.Second))
	warmest := p.serial()
	p.await("parked again", func() bool { return p.l.Busy() == 0 && p.idle() == w })
	if n := p.keep(); n != w {
		t.Fatalf("the pool keeps %d executors a second after bursts of %d, want %d", n, w, w)
	}

	// The second after: W-1 of the parked executors go, and the one left is
	// the most recently parked, which ran the last task.
	clock.Add(int64(time.Second))
	if ran := p.serial(); ran != warmest {
		t.Fatalf("the task ran on goroutine %d, want %d, which ran the task before", ran, warmest)
	}
	p.await("trimmed to one", func() bool {
		return p.l.Busy() == 0 && p.idle() == 1 && runtime.NumGoroutine() <= p.baseline+1
	})
	if n := p.keep(); n != 1 {
		t.Fatalf("the pool keeps %d executors two seconds after bursts of %d, want 1", n, w)
	}
	if n := p.started() - w; n != 0 {
		t.Fatalf("two serial tasks after the bursts started %d executors, want 0", n)
	}

	p.stop()
}
