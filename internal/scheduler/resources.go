// Package scheduler implements the paper's hybrid scheduling scheme
// (Section 3.2.2): a per-node Local scheduler that assigns locally-born
// work to local workers when possible, and a Global scheduler that places
// spilled-over tasks using cluster-wide information (resource availability,
// object locality, queue depth).
package scheduler

import (
	"sync"
	"time"

	"repro/internal/types"
)

// resourcePool tracks a node's resource capacity with blocking acquisition.
// The invariant checked by tests: available never exceeds total and never
// goes negative (types.Resources.Sub panics on underflow).
type resourcePool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	total types.Resources
	avail types.Resources
	// closed marks a detached bundle pool: blocked acquirers return false
	// and re-resolve their pool (the bundle's capacity moved back to the
	// node's general pool when its reservation was released), acquisitions
	// fail, and releases forward to fwd so a member task finishing after
	// its bundle's release returns capacity to the general pool instead of
	// stranding it in the orphaned bundle.
	closed bool
	fwd    *resourcePool
}

func newResourcePool(total types.Resources) *resourcePool {
	p := &resourcePool{total: total.Clone(), avail: total.Clone()}
	if p.total == nil {
		p.total = types.Resources{}
		p.avail = types.Resources{}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// tryAcquire takes r if currently available.
func (p *resourcePool) tryAcquire(r types.Resources) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !r.Fits(p.avail) {
		return false
	}
	p.avail.Sub(r)
	return true
}

// fits reports whether r is available now, without taking it.
func (p *resourcePool) fits(r types.Resources) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed && r.Fits(p.avail)
}

// acquireBlocking waits until r is available, stop closes, or the
// optional timeout elapses (0 = wait forever); reports whether the
// acquisition happened. Used when a blocked task reclaims its lent
// resources; the timeout lets ReacquireFor periodically re-resolve which
// pool it should be waiting on (a member's bundle can leave and later
// return to the node while the task is parked here).
func (p *resourcePool) acquireBlocking(r types.Resources, stop <-chan struct{}, timeout time.Duration) bool {
	done := make(chan struct{})
	abandoned := make(chan struct{})
	var ok bool
	go func() {
		defer close(done)
		p.mu.Lock()
		defer p.mu.Unlock()
		for !r.Fits(p.avail) {
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
		p.avail.Sub(r)
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
			p.release(r)
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

// release returns r to the pool and wakes waiters. Releases into a
// detached pool forward to its successor.
func (p *resourcePool) release(r types.Resources) {
	p.mu.Lock()
	if p.closed && p.fwd != nil {
		fwd := p.fwd
		p.mu.Unlock()
		fwd.release(r)
		return
	}
	p.avail.Add(r)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// snapshot returns copies of (total, available).
func (p *resourcePool) snapshot() (types.Resources, types.Resources) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total.Clone(), p.avail.Clone()
}

// detach marks the pool closed and returns its remaining availability: the
// caller moves that capacity into fwd (the node's general pool). Releases
// by tasks still holding this pool's resources forward to fwd from here
// on, so avail + forwarded releases together equal the pool's total, and
// anyone blocked inside acquireBlocking wakes to re-resolve.
func (p *resourcePool) detach(fwd *resourcePool) types.Resources {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.fwd = fwd
	avail := p.avail.Clone()
	p.avail = types.Resources{}
	p.cond.Broadcast()
	return avail
}
