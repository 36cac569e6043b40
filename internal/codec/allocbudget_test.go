//go:build !race

package codec

import (
	"runtime"
	"testing"
)

// TestAllocBudgetValues pins the allocations of one Encode plus one Decode
// of what an RL task passes. Through a gob stream per value, which is what
// Encode did for these before the value form, the same three cost 29, 173
// and 319: the budgets are under a quarter of that, and a change that sends
// plain data back through gob, or boxes per element, fails here. Not under
// -race, whose instrumentation allocates.
func TestAllocBudgetValues(t *testing.T) {
	budgets := map[string]float64{"int": 3, "float64x16": 4, "carry": 7}
	for _, c := range benchValues {
		got := testing.AllocsPerRun(200, func() {
			if err := Decode(MustEncode(c.v), c.out()); err != nil {
				t.Fatal(err)
			}
		})
		if got > budgets[c.name] {
			t.Errorf("%s: %.0f allocations per Encode+Decode, budget %.0f", c.name, got, budgets[c.name])
		}
	}
}

// TestAllocBudgetRaw pins the raw form at one object-sized buffer: one
// allocation of the payload's exact size (a large allocation rounds up to a
// page, hence the 8 KiB), nothing to spare for an append to write into, and
// no memory shared with the caller's slice. That the buffer is not zeroed
// first is not countable; BenchmarkEncodeRaw1MiB shows it.
func TestAllocBudgetRaw(t *testing.T) {
	x := make([]byte, 1<<20)
	for i := range x {
		x[i] = byte(i)
	}
	var v any = x // boxed once: the conversion is the caller's allocation
	if got := testing.AllocsPerRun(100, func() { MustEncode(v) }); got != 1 {
		t.Errorf("%.0f allocations per raw Encode, want 1", got)
	}
	limit := uint64(len(x) + 8<<10)
	least := ^uint64(0)
	for rep := 0; rep < 5; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MustEncode(v)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > limit {
		t.Errorf("raw Encode of %d bytes allocated %d, limit %d", len(x), least, limit)
	}
	out := MustEncode(v)
	if len(out) != 1+len(x) || cap(out) != len(out) {
		t.Fatalf("raw payload len %d cap %d, want both %d", len(out), cap(out), 1+len(x))
	}
	x[0]++
	if out[1] == x[0] {
		t.Error("raw payload aliases the encoded slice")
	}
}

// TestAllocBudgetDecodeSeeds holds every seed of FuzzDecode, into every one
// of its targets, to the bound the fuzz body reads off the decoded value —
// here on bytes allocated, so that a length prefix which makes memory and
// then fails shows too. TotalAlloc counts the whole process; whatever else
// allocates only adds, so the least of a few repeats is Decode's own.
func TestAllocBudgetDecodeSeeds(t *testing.T) {
	const slack = 2 << 10 // the reader, the error and its text
	for i, seed := range fuzzSeeds() {
		if len(seed) == 0 || seed[0] == tagGob {
			continue
		}
		limit := uint64(decodedPerByte*len(seed) + slack)
		for j := range fuzzTargets() {
			least := ^uint64(0)
			for rep := 0; rep < 5 && least > limit; rep++ {
				out := fuzzTargets()[j]
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				Decode(seed, out)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > limit {
				t.Errorf("seed %d (%d bytes) into %T allocated %d, limit %d", i, len(seed), fuzzTargets()[j], least, limit)
			}
		}
	}
}
