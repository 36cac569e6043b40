package lifetime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/types"
)

// reclaimGrace is how long after a node dropped an object's last local copy
// it proposes the object's record for retiring (DESIGN.md §17). The drain
// can run ahead of the control plane's view of the producer: a return that
// was announced, or whose touch was sent, before its producer's FINISHED
// stamp reaches the table is drained with that stamp still in its owner's
// ledger, at most a flush interval (plus a redelivery) behind. A return
// released before anything about it left its owner is not drained at all:
// its owner collects it at home, grace zero (collectHome). Twenty-five
// intervals cover the rest with a wide margin and are still short against
// anything a person or a dashboard sees; a proposal that was early all the
// same is made once more after twice as long, then given up.
const reclaimGrace = 25 * defaultFlushInterval

// Manager runs the lifetime subsystem on one node: it owns the node's
// reference Tracker, answers the store's "is this still referenced?"
// queries, and consumes the control plane's GC channel, dropping local
// copies (memory and spill tier) of objects whose cluster-wide count fell
// to zero. Every node runs one; each reclaims only its own copy, so a
// single zero-transition publish empties the whole cluster. What it drops
// it later proposes for retiring: the drain is the only trigger record
// lifetime has, so an object nobody released is never looked at.
type Manager struct {
	ctrl    gcs.API
	store   *objectstore.Store
	tracker *Tracker

	sub      gcs.Sub
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	reclaimed atomic.Int64

	// drained and again are the retire proposals, each in the order made:
	// objects whose local copy this node dropped, and the ones a first
	// proposal could conclude nothing about.
	pmu     sync.Mutex
	drained []proposal
	again   []proposal
	obs     retireObs
}

// proposal is an object to propose for retiring once at is a grace old.
type proposal struct {
	id types.ObjectID
	at time.Time
}

// retireObs are the record-lifetime instruments (nil-safe): the retire
// proposals and their outcomes, and what the node collected at home.
type retireObs struct {
	proposed, tasks, objects, dropped  *metrics.Counter
	referenced, located, pinned, early *metrics.Counter
	homeTasks, homeObjects             *metrics.Counter
}

// NewManager builds a manager for store; call Start to begin collecting.
func NewManager(ctrl gcs.API, store *objectstore.Store) *Manager {
	return &Manager{
		ctrl:    ctrl,
		store:   store,
		tracker: NewTracker(ctrl),
		stop:    make(chan struct{}),
	}
}

// SetMetrics attaches the registry the record-lifetime counters, the
// proposal-queue gauges and the tracker's flush-lag gauges are published
// in. Call before Start; nil detaches.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	m.tracker.SetMetrics(reg)
	refused := func(cause string) *metrics.Counter {
		return reg.Counter("lifetime.retire.refused;cause=" + cause)
	}
	m.obs = retireObs{
		proposed:   reg.Counter("lifetime.retire.proposed"),
		tasks:      reg.Counter("lifetime.retire.tasks"),
		objects:    reg.Counter("lifetime.retire.objects"),
		dropped:    reg.Counter("lifetime.retire.dropped"),
		referenced: refused("referenced"),
		located:    refused("located"),
		pinned:     refused("pinned"),
		early:      refused("producer-live"),
	}
	m.obs.homeTasks, m.obs.homeObjects = reg.Counter("lifetime.home.tasks"), reg.Counter("lifetime.home.objects")
	if reg != nil {
		reg.GaugeFunc("lifetime.retire.queued", func() int64 { n, _ := m.Proposals(); return int64(n) })
		reg.GaugeFunc("lifetime.retire.oldest_ms", func() int64 { _, age := m.Proposals(); return age.Milliseconds() })
	}
}

// Proposals reports how many retire proposals are queued and the age of
// the oldest.
func (m *Manager) Proposals() (queued int, oldest time.Duration) {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	for _, q := range [][]proposal{m.drained, m.again} {
		if len(q) > 0 {
			oldest = max(oldest, time.Since(q[0].at))
		}
		queued += len(q)
	}
	return queued, oldest
}

// SetTaskLedger makes proposals wait for the births tasks owes (no object
// drained after the oldest of them is proposed, see RetireDue), and makes
// the tracker keep the deltas on their returns at home until each birth
// lands or its task is collected at home (collectHome). Call before any
// birth.
func (m *Manager) SetTaskLedger(tasks *TaskLedger) {
	tasks.refs, m.tracker.tasks = m.tracker, tasks
}

// collectHome collects the returns ids of a task at home (DESIGN.md §17),
// if nothing about them left this node: each has no tracker state but a
// net-zero delta at home that no batch has sent or parked, and a copy the
// store holds back. It then drops those copies and the tracker's state on
// ids, with no word to the control plane, and reports true; otherwise it
// changes nothing. The node's task ledger calls it under its lock, from its
// flush, and from Birth on the newest owed birth, in the tracker call that
// Birth makes anyway (Tracker.birth; TaskLedger.SetCollector).
func (m *Manager) collectHome(ids []types.ObjectID) bool {
	m.tracker.mu.Lock()
	defer m.tracker.mu.Unlock()
	return m.collectHomeLocked(ids)
}

// collectHomeLocked is collectHome under the tracker's lock.
func (m *Manager) collectHomeLocked(ids []types.ObjectID) bool {
	t := m.tracker
	for _, id := range ids {
		if !t.touchOnlyLocked(id) {
			return false
		}
	}
	if !m.store.CollectHome(ids) {
		return false
	}
	for _, id := range ids {
		delete(t.held, id) // nothing is left in it
	}
	m.obs.homeTasks.Inc()
	m.obs.homeObjects.Add(int64(len(ids)))
	return true
}

// RetireDue hands every proposal a grace old at now (twice that for a
// second attempt) to the control plane's Retire in one batch; tests and
// tools call it, with a later now to skip the grace. It first lands the
// births the task ledger owes, waiting for a flush in progress, so a task
// born here that finished and was read is in the table before anything
// reads the table's absence as retirement. The tracker's flusher runs the
// same pass each tick without that wait (retireDue): the task ledger's own
// flusher lands births within an interval, and the tick must not stall on
// a shard that does not answer.
func (m *Manager) RetireDue(now time.Time) gcs.Retired {
	if m.tracker.tasks != nil {
		m.tracker.tasks.landBirths()
	}
	return m.retireDue(now)
}

// retireDue is RetireDue without landing the owed births.
//
// An object drained after the oldest birth the task ledger still owes
// waits: its producer may be that task, whose record — and with it the
// object's producer edge — is not in the table yet. Retiring the object
// first would leave the birth to write a record, and recreate an object
// record, that nothing proposes again.
func (m *Manager) retireDue(now time.Time) gcs.Retired {
	cut, again := now.Add(-reclaimGrace), now.Add(-2*reclaimGrace)
	m.pmu.Lock()
	due := len(m.drained) > 0 && !m.drained[0].at.After(cut) || len(m.again) > 0 && !m.again[0].at.After(again)
	m.pmu.Unlock()
	if !due {
		return gcs.Retired{}
	}
	if m.tracker.tasks != nil {
		if n, age := m.tracker.tasks.owedBirths(); n > 0 {
			born := time.Now().Add(-age - time.Nanosecond)
			if born.Before(cut) {
				cut = born
			}
			if born.Before(again) {
				again = born
			}
		}
	}
	m.pmu.Lock()
	first := takeDue(&m.drained, cut)
	second := takeDue(&m.again, again)
	m.pmu.Unlock()
	if len(first)+len(second) == 0 {
		return gcs.Retired{}
	}
	res := m.ctrl.Retire(append(first, second...))
	m.obs.tasks.Add(int64(res.Tasks))
	m.obs.objects.Add(int64(res.Objects))
	m.obs.referenced.Add(int64(res.Referenced))
	m.obs.located.Add(int64(res.Located))
	m.obs.pinned.Add(int64(res.Pinned))
	m.obs.early.Add(int64(len(res.Again)))
	if len(res.Again) > 0 {
		m.pmu.Lock()
		for _, id := range res.Again {
			if slices.Contains(second, id) {
				// Still nothing to conclude: the record stays, as every
				// record did before there was anything to retire it.
				m.obs.dropped.Inc()
			} else {
				m.again = append(m.again, proposal{id: id, at: now})
			}
		}
		m.pmu.Unlock()
	}
	return res
}

// takeDue removes and returns the leading proposals made at or before
// cutoff.
func takeDue(q *[]proposal, cutoff time.Time) []types.ObjectID {
	n := 0
	for n < len(*q) && !(*q)[n].at.After(cutoff) {
		n++
	}
	if n == 0 {
		return nil
	}
	ids := make([]types.ObjectID, n)
	for i, p := range (*q)[:n] {
		ids[i] = p.id
	}
	*q = (*q)[n:]
	return ids
}

// Tracker returns the node's reference ledger (futures and borrows).
func (m *Manager) Tracker() *Tracker { return m.tracker }

// Reclaimed returns how many local copies the GC loop has dropped.
func (m *Manager) Reclaimed() int64 { return m.reclaimed.Load() }

// Referenced reports whether the object still has live references anywhere
// in the cluster; the store consults it when deciding spill-versus-drop.
// This node's own ledger is checked first — it is the authority for the
// local share of the count and may be ahead of the GCS's flushed view, so
// a locally-held object is referenced no matter what the control plane
// says (and the common case costs no RPC at all). Otherwise unknown
// objects count as unreferenced (nothing can hold a reference to an object
// the control plane has never seen) — but a failed lookup with the control
// plane unreachable (a GCS shard mid-failover) counts as referenced:
// dropping on uncertainty would turn "spill referenced data" into "delete
// referenced data", unrecoverable for lineage-less Put objects. Same
// conservative rule as the spill queue's borrow bridge.
func (m *Manager) Referenced(id types.ObjectID) bool {
	if m.tracker.Held(id) > 0 {
		return true
	}
	info, ok := m.ctrl.GetObject(id)
	if ok {
		return info.RefCount > 0
	}
	if p, canProbe := m.ctrl.(gcs.Pinger); canProbe && !p.Ping() {
		return true
	}
	return false
}

// Start subscribes to the GC channel, switches the tracker to batched
// ledger mode attributed to this node, and launches the collection loop.
func (m *Manager) Start() {
	m.tracker.SetNode(m.store.Node())
	m.tracker.onTick = func() { m.retireDue(time.Now()) }
	m.tracker.Start()
	m.sub = m.ctrl.Subscribe(gcs.TopicObjectGC, types.NilObjectID)
	m.wg.Add(1)
	go m.run()
}

// Stop halts collection after a final ledger flush (graceful shutdown).
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		m.tracker.Stop()
		close(m.stop)
		if m.sub != nil {
			m.sub.Close()
		}
		m.wg.Wait()
	})
}

// Kill halts the subsystem as a crash would: the tracker's unflushed
// deltas are abandoned, not flushed — the control plane's owner-death
// sweep reconciles whatever this node's ledger had already published.
func (m *Manager) Kill() {
	m.stopOnce.Do(func() {
		m.tracker.Abandon()
		close(m.stop)
		if m.sub != nil {
			m.sub.Close()
		}
		m.wg.Wait()
	})
}

func (m *Manager) run() {
	defer m.wg.Done()
	for {
		select {
		case msg, ok := <-m.sub.C():
			if !ok {
				return
			}
			if len(msg) != types.IDSize {
				continue
			}
			var id types.ObjectID
			copy(id[:], msg)
			m.maybeReclaim(id)
		case <-m.stop:
			return
		}
	}
}

// maybeReclaim drops the local copy of id if it is still garbage. The
// recheck narrows (but cannot close) the race against a concurrent
// re-retain; a wrongly dropped copy degrades to object-lost, which lineage
// reconstruction repairs, so the race costs time, not correctness.
// Delete is also safe against an in-flight spill or restore of the same
// object: the store's per-entry state machine settles the accounting on
// the deleter's side and the in-flight transition finalizes as a no-op
// (waiters of an in-flight restore are still served the bytes — a valid
// "Get before Delete" serialization). The drained object is proposed for
// retiring once the control plane no longer lists the copy: proposed while
// its deregistration still waited behind another publish of the object,
// it would be refused as located and never proposed again.
func (m *Manager) maybeReclaim(id types.ObjectID) {
	if m.tracker.Held(id) > 0 && !m.jobReclaimed(id) {
		// The local ledger holds an unflushed reference: the GCS's zero was
		// stale the moment it published. Skip — the eventual release will
		// re-trigger GC.
		return
	}
	if !m.store.Contains(id) {
		// Every node hears every GC publish and most hold no copy (memory or
		// spill tier): nothing to drop here, so nothing to ask the control
		// plane.
		return
	}
	info, ok := m.ctrl.GetObject(id)
	if !ok || info.RefCount > 0 {
		return
	}
	if m.store.DeleteThen(id, func() { m.propose(id) }) {
		m.reclaimed.Add(1)
		m.ctrl.LogEvent(types.Event{Kind: "object-reclaimed", Object: id, Node: m.store.Node()})
	}
}

// propose queues id, whose local copy is gone, for retiring.
func (m *Manager) propose(id types.ObjectID) {
	m.obs.proposed.Inc()
	m.pmu.Lock()
	m.drained = append(m.drained, proposal{id: id, at: time.Now()})
	m.pmu.Unlock()
}

// jobReclaimed reports whether id belongs to a terminated tenant job — in
// which case this node's references to it are void by decree (DESIGN.md
// §14: a job stop destroys the tenant's data wholesale) and are forgotten
// rather than honored, so the reclaim pass can drain the object's copies
// while live drivers still hold its futures. Read-only otherwise: three
// record fetches, paid only on GC events for locally-held objects.
func (m *Manager) jobReclaimed(id types.ObjectID) bool {
	info, ok := m.ctrl.GetObject(id)
	if !ok || info.RefCount != 0 {
		return false
	}
	task, ok := m.ctrl.GetTask(info.Producer)
	if !ok || task.Spec.Job.IsNil() {
		return false
	}
	job, ok := m.ctrl.GetJob(task.Spec.Job)
	if !ok || job.State == types.JobRunning {
		return false
	}
	m.tracker.Forget(id)
	return true
}
