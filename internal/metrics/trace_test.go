package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func fakeClock() (func() int64, *atomic.Int64) {
	var t atomic.Int64
	return func() int64 { return t.Add(1) }, &t
}

func TestTracerSpanFields(t *testing.T) {
	now, _ := fakeClock()
	tr := NewTracer(8, "n1", now)
	sp := tr.Begin("spill", "objectstore.spill")
	sp.TaskID = [16]byte{0xaa, 0x01}
	sp.ObjectID = [16]byte{0xbb, 0x02}
	sp.Trace = 99
	sp.Detail = "64KiB"
	if dur := sp.End(); dur != 1 {
		t.Fatalf("End returned %d, want the span's duration 1", dur)
	}

	spans := tr.Drain()
	if len(spans) != 1 {
		t.Fatalf("drained %d spans, want 1", len(spans))
	}
	rec := spans[0]
	if rec.Name != "objectstore.spill" || rec.Cat != "spill" || rec.TaskID != sp.TaskID ||
		rec.ObjectID != sp.ObjectID || rec.Trace != 99 || rec.Node != "n1" || rec.Detail != "64KiB" {
		t.Fatalf("bad record: %+v", rec)
	}
	// The recorder formats nothing; a reader does.
	if rec.Task != "" || rec.Object != "" {
		t.Fatalf("recorded span carries hex IDs: %+v", rec)
	}
	rec.FormatIDs()
	zeros := strings.Repeat("00", 14)
	if rec.Task != "aa01"+zeros || rec.Object != "bb02"+zeros {
		t.Fatalf("formatted IDs: task %q object %q", rec.Task, rec.Object)
	}
	if rec.StartNs != 1 || rec.DurNs != 1 {
		t.Fatalf("bad timestamps: start=%d dur=%d", rec.StartNs, rec.DurNs)
	}
	if got := tr.Drain(); got != nil {
		t.Fatalf("second drain returned %d spans", len(got))
	}
}

// The ring drops oldest on overflow and Drain returns oldest-first.
func TestTracerRingOverflow(t *testing.T) {
	now, _ := fakeClock()
	tr := NewTracer(3, "n1", now)
	for i := 0; i < 5; i++ {
		sp := tr.Begin("c", "s")
		sp.Trace = uint64(i)
		sp.End()
	}
	spans := tr.Drain()
	if len(spans) != 3 {
		t.Fatalf("drained %d, want 3", len(spans))
	}
	for i, want := range []uint64{2, 3, 4} {
		if spans[i].Trace != want {
			t.Errorf("span %d trace = %d, want %d", i, spans[i].Trace, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTracerConcurrent(t *testing.T) {
	now, _ := fakeClock()
	tr := NewTracer(1024, "n1", now)
	var wg sync.WaitGroup
	var drained atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Begin("c", "s")
				sp.End()
				if i%50 == 0 {
					drained.Add(int64(len(tr.Drain())))
				}
			}
		}()
	}
	wg.Wait()
	drained.Add(int64(len(tr.Drain())))
	total := drained.Load() + tr.Dropped()
	if total != 8*200 {
		t.Fatalf("drained+dropped = %d, want %d", total, 8*200)
	}
}

// Drain swaps the ring for its spare under the lock and copies outside it:
// spans that end while a Drain copies go to the next Drain, none lost and
// none twice, each writer's in the order they ended. The ring holds every
// span, so nothing is dropped either.
func TestTracerDrainKeepsSpansEndedMeanwhile(t *testing.T) {
	const writers, each = 4, 2000
	now, _ := fakeClock()
	tr := NewTracer(writers*each, "n1", now)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				sp := tr.Begin("c", "s")
				sp.Trace = uint64(w*each + i)
				sp.End()
			}
		}()
	}
	stop, drained := make(chan struct{}), make(chan []SpanRecord)
	go func() {
		var got []SpanRecord
		for {
			select {
			case <-stop:
				drained <- got
				return
			default:
				got = append(got, tr.Drain()...)
			}
		}
	}()
	wg.Wait()
	close(stop)
	got := append(<-drained, tr.Drain()...)
	if len(got) != writers*each || tr.Dropped() != 0 {
		t.Fatalf("drained %d spans and dropped %d, want %d and 0", len(got), tr.Dropped(), writers*each)
	}
	next := make([]uint64, writers) // each writer's next span
	for _, rec := range got {
		w := rec.Trace / each
		if want := w*each + next[w]; rec.Trace != want {
			t.Fatalf("writer %d's span %d drained where %d was due", w, rec.Trace, want)
		}
		next[w]++
	}
}

// Drain and the rings it swaps keep the ring's order across wrap-round and
// overflow, round after round: each Drain returns what ended since the last.
func TestTracerDrainRounds(t *testing.T) {
	now, _ := fakeClock()
	tr := NewTracer(3, "n1", now)
	var trace uint64
	for round, k := range []int{1, 3, 5, 2, 4, 0, 3} {
		for range k {
			sp := tr.Begin("c", "s")
			sp.Trace = trace
			trace++
			sp.End()
		}
		spans := tr.Drain()
		if len(spans) != min(k, 3) {
			t.Fatalf("round %d drained %d spans, want %d", round, len(spans), min(k, 3))
		}
		for i, rec := range spans {
			if want := trace - uint64(len(spans)-i); rec.Trace != want {
				t.Fatalf("round %d span %d has trace %d, want %d", round, i, rec.Trace, want)
			}
		}
	}
}

// A non-empty Drain makes one allocation, the n-sized slice it returns.
func TestTracerDrainAllocs(t *testing.T) {
	now, _ := fakeClock()
	tr := NewTracer(0, "n1", now)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Begin("c", "s").End()
		if spans := tr.Drain(); len(spans) != 1 {
			t.Fatalf("drained %d spans, want 1", len(spans))
		}
	})
	if allocs != 1 {
		t.Fatalf("a Drain of one span made %v allocations, want 1", allocs)
	}
}
