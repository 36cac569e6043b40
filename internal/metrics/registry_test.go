package metrics

import (
	"sync"
	"testing"
)

// A nil registry and nil instruments must be fully inert: components are
// wired with whatever the node hands them, and "metrics off" is a nil.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	g := r.Gauge("b")
	g.Set(7)
	g.Add(1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge value = %d", got)
	}
	r.GaugeFunc("c", func() int64 { return 1 })
	h := r.Histogram("d")
	h.Observe(9)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram count = %d", s.Count)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Hists) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if r.Names() != nil {
		t.Fatalf("nil registry names not nil")
	}

	var tr *Tracer
	sp := tr.Begin("cat", "name")
	sp.TaskID[0] = 1
	if sp.End() != 0 {
		t.Fatalf("nil tracer span has a duration")
	}
	if tr.Drain() != nil || tr.Dropped() != 0 {
		t.Fatalf("nil tracer not inert")
	}
}

func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatalf("same name returned distinct counters")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatalf("same name returned distinct gauges")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Fatalf("same name returned distinct histograms")
	}
}

func TestSnapshotValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks.submitted").Add(3)
	r.Gauge("queue.depth").Set(11)
	r.GaugeFunc("store.used.bytes", func() int64 { return 42 })
	r.Histogram("lat.ns").Observe(100)
	r.Histogram("lat.ns").Observe(200)

	snap := r.Snapshot()
	if snap.Counters["tasks.submitted"] != 3 {
		t.Errorf("counter = %d, want 3", snap.Counters["tasks.submitted"])
	}
	if snap.Gauges["queue.depth"] != 11 {
		t.Errorf("gauge = %d, want 11", snap.Gauges["queue.depth"])
	}
	if snap.Gauges["store.used.bytes"] != 42 {
		t.Errorf("gauge func = %d, want 42", snap.Gauges["store.used.bytes"])
	}
	h := snap.Hists["lat.ns"]
	if h.Count != 2 || h.Sum != 300 {
		t.Errorf("hist count=%d sum=%d, want 2/300", h.Count, h.Sum)
	}
	want := []string{"lat.ns", "queue.depth", "store.used.bytes", "tasks.submitted"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

// Concurrent get-or-create plus records must be race-free (run under
// -race in CI) and lose no increments.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(int64(i))
				r.Gauge("g").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h").Snapshot().Count; got != goroutines*perG {
		t.Fatalf("hist count = %d, want %d", got, goroutines*perG)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(1)
	a.Gauge("g").Set(2)
	a.Histogram("h").Observe(10)
	b := NewRegistry()
	b.Counter("c").Add(3)
	b.Gauge("g").Set(4)
	b.Histogram("h").Observe(20)

	merged := MergeSnapshots([]NodeSnapshot{
		{Node: "n1", Snap: a.Snapshot()},
		{Node: "n2", Snap: b.Snapshot()},
	})
	if merged.Counters["c"] != 4 {
		t.Errorf("merged counter = %d, want 4", merged.Counters["c"])
	}
	if merged.Gauges["g"] != 6 {
		t.Errorf("merged gauge = %d, want 6", merged.Gauges["g"])
	}
	h := merged.Hists["h"]
	if h.Count != 2 || h.Sum != 30 {
		t.Errorf("merged hist count=%d sum=%d, want 2/30", h.Count, h.Sum)
	}
}
