// Package scheduler implements the paper's hybrid scheduling scheme
// (Section 3.2.2): a per-node Local scheduler that assigns locally-born
// work to local workers when possible, and a Global scheduler that places
// spilled-over tasks using cluster-wide information (resource availability,
// object locality, queue depth).
package scheduler

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/types"
)

// The tolerances of the books, as in types.Resources: a fit forgives
// fitSlack of rounding, and a subtraction may land up to underflowSlack
// below zero (clamped to 0) before the books are declared broken.
const (
	fitSlack       = 1e-9
	underflowSlack = 1e-6
)

// resNames is a node's resource name table: the sorted names of its total
// capacity (LocalConfig.Total). The general pool and every bundle pool keep
// their books as vectors indexed by it (DESIGN.md §3.1).
type resNames []string

func newResNames(total types.Resources) resNames {
	names := make(resNames, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// vector lays r out over the table; names the node lacks are dropped.
func (n resNames) vector(r types.Resources) []float64 {
	v := make([]float64, len(n))
	for i, name := range n {
		v[i] = r[name]
	}
	return v
}

// resources is the map form of v, one key per name, zero-valued ones
// included.
func (n resNames) resources(v []float64) types.Resources {
	r := make(types.Resources, len(n))
	for i, name := range n {
		r[name] = v[i]
	}
	return r
}

// demand resolves r against the table, walking the map once: a task's
// demand is resolved when its record is made (Local.newLocalTask), and every
// check after that reads the vectors.
func (n resNames) demand(r types.Resources) (d demand) {
	for name, q := range r {
		if q <= 0 {
			continue
		}
		i, ok := slices.BinarySearch(n, name)
		switch {
		case ok:
			d.add(resEntry{i: i, q: q})
		case q > fitSlack:
			d.lacks = true
		}
	}
	return d
}

// resEntry is one positive quantity of a demand, by name index.
type resEntry struct {
	i int
	q float64
}

// demand is a resource demand resolved against a node's name table: its
// positive quantities by index. The first two are held inline, so
// resolving a demand that names at most two resources allocates nothing.
// lacks marks a quantity beyond fitSlack of a resource the node has none
// of: such a demand fits no pool here, and is infeasible on this node.
type demand struct {
	head  [2]resEntry
	more  *[]resEntry // the entries past head; a pointer keeps localTask at 288 B
	n     int32
	lacks bool
}

func (d *demand) add(e resEntry) {
	if int(d.n) < len(d.head) {
		d.head[d.n] = e
	} else {
		if d.more == nil {
			d.more = new([]resEntry)
		}
		*d.more = append(*d.more, e)
	}
	d.n++
}

func (d *demand) at(k int) resEntry {
	if k < len(d.head) {
		return d.head[k]
	}
	return (*d.more)[k-len(d.head)]
}

// fitsIn reports whether d fits in the vector v.
func (d *demand) fitsIn(v []float64) bool {
	if d.lacks {
		return false
	}
	for k := range int(d.n) {
		if e := d.at(k); v[e.i] < e.q-fitSlack {
			return false
		}
	}
	return true
}

// subFrom takes d out of v; it panics on an underflow beyond
// underflowSlack, which is a scheduler bug.
func (d *demand) subFrom(v []float64, names resNames) {
	for k := range int(d.n) {
		e := d.at(k)
		nv := v[e.i] - e.q
		if nv < -underflowSlack {
			panic(fmt.Sprintf("scheduler: resource %s would go negative: %v - %v", names[e.i], v[e.i], e.q))
		}
		v[e.i] = max(nv, 0)
	}
}

func (d *demand) addTo(v []float64) {
	for k := range int(d.n) {
		e := d.at(k)
		v[e.i] += e.q
	}
}

// vectorDemand is the demand of the positive entries of v.
func vectorDemand(v []float64) (d demand) {
	for i, q := range v {
		if q > 0 {
			d.add(resEntry{i: i, q: q})
		}
	}
	return d
}

// resourcePool tracks a node's resource capacity with blocking acquisition,
// as vectors over the node's name table. The invariant checked by tests:
// available never exceeds total and never goes negative (subFrom panics on
// underflow). total is fixed at construction and read without the lock.
type resourcePool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	names resNames
	total []float64
	avail []float64
	// closed marks a detached bundle pool: blocked acquirers return false
	// and re-resolve their pool (the bundle's capacity moved back to the
	// node's general pool when its reservation was released), acquisitions
	// fail, and releases forward to fwd so a member task finishing after
	// its bundle's release returns capacity to the general pool instead of
	// stranding it in the orphaned bundle.
	closed bool
	fwd    *resourcePool
}

// newResourcePool makes a pool of capacity total, a vector over names.
func newResourcePool(names resNames, total []float64) *resourcePool {
	p := &resourcePool{names: names, total: total, avail: slices.Clone(total)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// tryAcquire takes d if currently available.
func (p *resourcePool) tryAcquire(d *demand) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !d.fitsIn(p.avail) {
		return false
	}
	d.subFrom(p.avail, p.names)
	return true
}

// fits reports whether d is available now, without taking it.
func (p *resourcePool) fits(d *demand) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed && d.fitsIn(p.avail)
}

// feasible reports whether d could ever be available here: whether it fits
// the pool's total.
func (p *resourcePool) feasible(d *demand) bool { return d.fitsIn(p.total) }

// acquireBlocking waits until d is available, stop closes, or the
// optional timeout elapses (0 = wait forever); reports whether the
// acquisition happened. Used when a blocked task reclaims its lent
// resources; the timeout lets ReacquireFor periodically re-resolve which
// pool it should be waiting on (a member's bundle can leave and later
// return to the node while the task is parked here).
func (p *resourcePool) acquireBlocking(d *demand, stop <-chan struct{}, timeout time.Duration) bool {
	done := make(chan struct{})
	abandoned := make(chan struct{})
	var ok bool
	go func() {
		defer close(done)
		p.mu.Lock()
		defer p.mu.Unlock()
		for !d.fitsIn(p.avail) {
			if p.closed {
				return
			}
			select {
			case <-stop:
				return
			case <-abandoned:
				return
			default:
			}
			p.cond.Wait()
		}
		d.subFrom(p.avail, p.names)
		ok = true
	}()
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	abandon := func() bool {
		// Wake the waiter so its goroutine exits; it may still succeed in
		// a race, in which case the resources are immediately returned.
		// The close+broadcast happens under the pool lock: an unlocked
		// broadcast can land between the waiter's abandoned-check and its
		// cond.Wait and be lost, stranding both goroutines until some
		// unrelated release broadcasts (forever, on a quiescent pool).
		p.mu.Lock()
		close(abandoned)
		p.cond.Broadcast()
		p.mu.Unlock()
		<-done
		if ok {
			p.release(d)
		}
		return false
	}
	select {
	case <-done:
		return ok
	case <-stop:
		return abandon()
	case <-expire:
		return abandon()
	}
}

// release returns d to the pool and wakes waiters. Releases into a
// detached pool forward to its successor.
func (p *resourcePool) release(d *demand) {
	p.mu.Lock()
	if p.closed && p.fwd != nil {
		fwd := p.fwd
		p.mu.Unlock()
		fwd.release(d)
		return
	}
	d.addTo(p.avail)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// snapshot returns the maps of (total, available), one key per name.
func (p *resourcePool) snapshot() (types.Resources, types.Resources) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.names.resources(p.total), p.names.resources(p.avail)
}

// detach marks the pool closed and returns its remaining availability: the
// caller moves that capacity into fwd (the node's general pool). Releases
// by tasks still holding this pool's resources forward to fwd from here
// on, so avail + forwarded releases together equal the pool's total, and
// anyone blocked inside acquireBlocking wakes to re-resolve.
func (p *resourcePool) detach(fwd *resourcePool) demand {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.fwd = fwd
	avail := vectorDemand(p.avail)
	clear(p.avail)
	p.cond.Broadcast()
	return avail
}
