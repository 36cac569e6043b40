package scheduler

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// booksModel is the map arithmetic the vector books replaced
// (types.Resources Fits, Sub and Add) over the same operations. The node
// has none of a name outside its total, so nothing of one can be held: the
// model drops such names after each step, where map arithmetic would keep
// the zero (or within-tolerance) key a demand naming one leaves behind.
type booksModel struct {
	total, avail types.Resources
	bundle       types.Resources // the live reservation's availability; nil if none
	reserved     types.Resources
}

func (m *booksModel) trim(r types.Resources) {
	for name := range r {
		if _, ok := m.total[name]; !ok {
			delete(r, name)
		}
	}
}

// booksHold is a demand acquired from a pool, not yet released.
type booksHold struct {
	raw  types.Resources
	d    *demand
	pool *resourcePool
}

var (
	booksNodeNames   = []string{types.ResCPU, types.ResGPU, "accel", "mem", "zeta"}
	booksDemandNames = append(slices.Clone(booksNodeNames), "TPU", "nope")
	booksCapacities  = []float64{0, 0.5, 1, 2, 4, 16}
	// Demand quantities: zero, within the fit tolerance (1e-9) of zero and
	// of whole units, past it, and within the underflow tolerance (1e-6).
	booksQuantities = []float64{0, 1e-10, 1e-9, 2e-9, 5e-7, 0.25, 0.5, 1 - 5e-10, 1, 1 + 5e-10, 1 + 5e-7, 2, 3}
)

// TestResourceBooksAgreeWithResourcesArithmetic: random sequences of fits,
// tryAcquire, release, reservations and their release (detach) on a node
// with random totals, on the general pool and on a bundle pool, agree step
// by step with the map model, and Available and Accounting equal the
// model's maps, zero-valued keys included.
func TestResourceBooksAgreeWithResourcesArithmetic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := types.Resources{}
		for _, name := range booksNodeNames {
			if rng.Intn(5) < 3 {
				total[name] = booksCapacities[rng.Intn(len(booksCapacities))]
			}
		}
		l, _, _, _ := buildLocal(t, total, SpillNever)
		defer l.Stop()
		names := l.res.names
		m := &booksModel{total: total.Clone(), avail: total.Clone(), reserved: types.Resources{}}
		randDemand := func() types.Resources {
			r := types.Resources{}
			for range 1 + rng.Intn(3) {
				r[booksDemandNames[rng.Intn(len(booksDemandNames))]] = booksQuantities[rng.Intn(len(booksQuantities))]
			}
			return r
		}
		var held []booksHold
		group := tGroup(byte(seed))
		for step := range 60 {
			raw := randDemand()
			d := names.demand(raw)
			fail := func(format string, args ...any) bool {
				t.Logf("seed %d step %d, total %v, demand %v: "+format, append([]any{seed, step, total, raw}, args...)...)
				return false
			}
			bundle := l.bundles[bundleKey{group: group}]
			switch op := rng.Intn(8); {
			case op == 0:
				if got, want := l.res.fits(&d), raw.Fits(m.avail); got != want {
					return fail("fits %v, model %v", got, want)
				}
				if got, want := l.res.feasible(&d), raw.FeasibleOn(m.total); got != want {
					return fail("feasible %v, model %v", got, want)
				}
			case op <= 2:
				got, want := l.res.tryAcquire(&d), raw.Fits(m.avail)
				if got != want {
					return fail("tryAcquire %v, model %v", got, want)
				}
				if got {
					m.avail.Sub(raw)
					held = append(held, booksHold{raw: raw, d: &d, pool: l.res})
				}
			case op == 3 && bundle != nil:
				got, want := bundle.tryAcquire(&d), raw.Fits(m.bundle)
				if got != want {
					return fail("bundle tryAcquire %v, model %v", got, want)
				}
				if got {
					m.bundle.Sub(raw)
					held = append(held, booksHold{raw: raw, d: &d, pool: bundle})
				}
			case op <= 5 && len(held) > 0:
				i := rng.Intn(len(held))
				h := held[i]
				held = slices.Delete(held, i, i+1)
				// A release into a detached reservation forwards to the
				// general pool.
				h.pool.release(h.d)
				if h.pool == bundle {
					m.bundle.Add(h.raw)
				} else {
					m.avail.Add(h.raw)
				}
			case op == 6 && bundle == nil && len(total) > 0:
				res := types.Resources{}
				for name := range total {
					if rng.Intn(2) == 0 {
						res[name] = booksQuantities[5+rng.Intn(len(booksQuantities)-5)]
					}
				}
				if len(res) == 0 {
					break
				}
				got, want := l.ReserveBundle(group, 0, res), res.Fits(m.avail)
				if got != want {
					return fail("reserve %v: %v, model %v", res, got, want)
				}
				if got {
					m.avail.Sub(res)
					m.bundle, m.reserved = res.Clone(), res.Clone()
				}
			case op == 7 && bundle != nil:
				l.ReleaseGroup(group, true)
				m.avail.Add(m.bundle)
				m.bundle, m.reserved = nil, types.Resources{}
			}
			m.trim(m.avail)
			m.trim(m.bundle)
			if got := l.Available(); !equalBooks(got, m.avail) {
				return fail("Available %v, model %v", got, m.avail)
			}
			if bundle := l.bundles[bundleKey{group: group}]; bundle != nil {
				_, avail := bundle.snapshot()
				for _, name := range names {
					if avail[name] != m.bundle[name] {
						return fail("bundle %s avail %v, model %v", name, avail[name], m.bundle[name])
					}
				}
			}
			gotTotal, gotAvail, bundles, reserved := l.Accounting()
			wantBundles := 0
			if m.bundle != nil {
				wantBundles = 1
			}
			if !equalBooks(gotTotal, m.total) || !equalBooks(gotAvail, m.avail) || bundles != wantBundles || !equalBooks(reserved, m.reserved) {
				return fail("Accounting (%v, %v, %d, %v), model (%v, %v, %d, %v)",
					gotTotal, gotAvail, bundles, reserved, m.total, m.avail, wantBundles, m.reserved)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// equalBooks reports whether a and b hold the same keys, zero-valued ones
// included, with equal quantities.
func equalBooks(a, b types.Resources) bool {
	if len(a) != len(b) {
		return false
	}
	for name, q := range a {
		if bq, ok := b[name]; !ok || bq != q {
			return false
		}
	}
	return true
}

// TestResourceBooksBudget pins what the books cost a task once its demand
// is resolved: a fits, a tryAcquire and a release allocate nothing, and
// resolving a demand that names at most two resources allocates nothing.
func TestResourceBooksBudget(t *testing.T) {
	total := types.Resources{types.ResCPU: 4, types.ResGPU: 1, "mem": 8}
	names := newResNames(total)
	p := newResourcePool(names, names.vector(total))
	gpu := types.GPU(1, 0.5)
	d := names.demand(gpu)
	if allocs := testing.AllocsPerRun(100, func() {
		if !p.fits(&d) || !p.tryAcquire(&d) {
			t.Fatal("the demand does not fit an idle pool")
		}
		p.release(&d)
	}); allocs != 0 {
		t.Fatalf("fits, tryAcquire and release allocate %v times, budget 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { d = names.demand(gpu) }); allocs != 0 {
		t.Fatalf("resolving a two-resource demand allocates %v times, budget 0", allocs)
	}
}
