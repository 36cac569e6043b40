//go:build !race

package lifetime

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/transport"
	"repro/internal/types"
)

// TestAllocBudgetChunkedPull pins a chunked pull at one object-sized buffer:
// the in-process chunk responses alias the source's bytes, and the stored
// copy is the one allocation of the object's size, exact, sharing nothing
// with the source. A second object-sized buffer (storing a copy of the
// reassembled bytes, or copying each chunk before the join) fails the byte
// budget. That the copy is not zeroed first is not countable;
// BenchmarkChunkedPull1MiB shows it. Not under -race, whose instrumentation
// allocates.
func TestAllocBudgetChunkedPull(t *testing.T) {
	srcs, dst, _, pm := pullFixture(t, transport.NewInproc(0), 1, PullConfig{ChunkSize: 256 << 10})
	id := testObj(46)
	payload := patterned(1<<20 + 1) // four full chunks and a 1-byte tail
	if err := srcs[0].Put(id, payload); err != nil {
		t.Fatal(err)
	}
	locs := []types.NodeID{srcs[0].Node()}
	fetch := func() {
		if err := pm.Fetch(context.Background(), id, locs); err != nil {
			t.Fatal(err)
		}
	}

	// TotalAlloc counts the whole process; whatever else allocates only
	// adds, so the least of a few pulls is the pull's own.
	limit := uint64(len(payload) + 64<<10)
	least := ^uint64(0)
	for rep := 0; rep < 5; rep++ {
		dst.Delete(id)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fetch()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > limit {
		t.Errorf("chunked pull of %d bytes allocated %d, limit %d", len(payload), least, limit)
	}
	if _, chunks, _ := pm.Stats(); chunks != 5*5 {
		t.Fatalf("chunks = %d over 5 pulls, want 25", chunks)
	}

	got, ok := dst.Get(id)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("chunked pull corrupted payload")
	}
	if cap(got) != len(got) {
		t.Errorf("stored copy len %d cap %d, want cap == len", len(got), cap(got))
	}
	want := bytes.Clone(payload)
	for i := range payload {
		payload[i] ^= 0xff
	}
	if !bytes.Equal(got, want) {
		t.Error("stored copy changed with the source's buffer: it aliases the source")
	}
}
