package gcs

import (
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/kv"
	"repro/internal/types"
)

// table is one control-plane table — tasks, objects, nodes, jobs or
// placement groups — held as decoded records keyed by the 16-byte ID and
// striped by it (DESIGN.md §3).
//
// Aliasing discipline: the table owns every slice, map and ring its records
// point to. Writers mutate a record in place under its stripe's lock; what
// crosses the boundary is copied — in by the caller of mutate (Clone what it
// stores), out by get and by whatever a scan callback keeps. Nothing handed
// to a reader shares memory with the table.
//
// Bytes exist only where bytes are needed. A table built over a journal (the
// kv.Logger of a durable shard) writes each committed record's encoding
// under its kv key — prefix + hex(ID), the layout WALs and snapshots have
// always had — inside the critical section that commits it, so the log
// orders a key's records as the table applied them. Without a journal
// nothing is encoded.
type table[K ~[types.IDSize]byte, V any] struct {
	prefix string
	clone  func(*V) V
	// marked is the predicate of the table's marker index (PENDING tasks,
	// GC-eligible objects), kept under markPrefix; nil for an unindexed
	// table. The marker follows the record: every mutate re-derives it, so
	// any touch heals a marker that a crash between the two WAL writes (or
	// a torn tail) stranded.
	markPrefix string
	marked     func(*V) bool
	journal    kv.DB // nil: in-memory store
	ops        atomic.Int64
	live       atomic.Int64 // records in the table
	stripes    []stripe[K, V]
}

type stripe[K comparable, V any] struct {
	mu    sync.Mutex
	recs  map[K]*V
	marks map[K]struct{}
	// watchers lists the nodes that asked to hear a record's next change
	// once (watchOnce). It is never journaled.
	watchers map[K][]types.NodeID
}

// mode says what mutate does about a missing record and about the journal.
type mode int

const (
	existing mode = iota // leave a missing record missing
	upsert               // start a missing record from its zero value
	unlogged             // existing, and the change stays out of the journal
)

func newTable[K ~[types.IDSize]byte, V any](stripes int, prefix, markPrefix string, marked func(*V) bool, clone func(*V) V) *table[K, V] {
	t := &table[K, V]{prefix: prefix, clone: clone, markPrefix: markPrefix, marked: marked, stripes: make([]stripe[K, V], stripes)}
	for i := range t.stripes {
		t.stripes[i] = stripe[K, V]{recs: make(map[K]*V), marks: make(map[K]struct{}), watchers: make(map[K][]types.NodeID)}
	}
	return t
}

func (t *table[K, V]) stripe(id K) *stripe[K, V] {
	return &t.stripes[binary.LittleEndian.Uint32(id[:4])%uint32(len(t.stripes))]
}

func key[K ~[types.IDSize]byte](prefix string, id K) string {
	return prefix + hex.EncodeToString(id[:])
}

// mutate is the one read-modify-write path. Under the stripe lock it finds
// id's record and runs fn on it in place; fn reports whether it changed the
// record and must leave an unchanged one untouched. A change is committed
// (inserted if new, journaled unless unlogged) and the marker reconciled
// before the lock drops. It returns fn's verdict; side effects run after,
// off the lock.
func (t *table[K, V]) mutate(id K, m mode, fn func(rec *V, exists bool) bool) (changed bool) {
	t.ops.Add(1)
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, exists := st.recs[id]
	switch {
	case exists:
		changed = fn(rec, true)
	case m == upsert:
		rec = new(V)
		if changed = fn(rec, false); changed {
			st.recs[id] = rec
			t.live.Add(1)
		} else {
			rec = nil
		}
	}
	if changed && m != unlogged && t.journal != nil {
		t.journal.Put(key(t.prefix, id), codec.MustEncode(rec))
	}
	t.reconcile(st, id, rec)
	return changed
}

// reconcile makes id's marker agree with its record (nil: no record) and
// reports whether it is marked. Caller holds st.mu.
func (t *table[K, V]) reconcile(st *stripe[K, V], id K, rec *V) bool {
	if t.marked == nil {
		return false
	}
	want := rec != nil && t.marked(rec)
	if _, have := st.marks[id]; have == want {
		return want
	}
	if want {
		st.marks[id] = struct{}{}
	} else {
		delete(st.marks, id)
	}
	if t.journal != nil {
		if want {
			t.journal.Put(key(t.markPrefix, id), nil)
		} else {
			t.journal.Delete(key(t.markPrefix, id))
		}
	}
	return want
}

// get returns a private copy of id's record.
func (t *table[K, V]) get(id K) (V, bool) {
	t.ops.Add(1)
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.recs[id]
	if !ok {
		var zero V
		return zero, false
	}
	return t.clone(rec), true
}

// view runs fn on id's record in place, under its stripe's lock, and reports
// whether there is one: a read that copies nothing. fn must neither change
// rec nor keep it.
func (t *table[K, V]) view(id K, fn func(rec *V)) bool {
	t.ops.Add(1)
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.recs[id]
	if ok {
		fn(rec)
	}
	return ok
}

// watchOnce runs look on id's record, if there is one, under its stripe's
// lock, and adds node to the record's watchers unless look reports the
// record settled. look must neither change rec nor keep it. The caller of
// the change a watcher waits for takes the watchers after committing it
// (takeWatchers): a watch that look allowed came before that commit.
func (t *table[K, V]) watchOnce(id K, node types.NodeID, look func(rec *V) (settled bool)) {
	t.ops.Add(1)
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec, ok := st.recs[id]; ok && !look(rec) && !slices.Contains(st.watchers[id], node) {
		st.watchers[id] = append(st.watchers[id], node)
	}
}

// takeWatchers removes and returns id's watchers.
func (t *table[K, V]) takeWatchers(id K) []types.NodeID {
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	nodes := st.watchers[id]
	if nodes != nil {
		delete(st.watchers, id)
	}
	return nodes
}

// remove deletes id's record, its marker and its watchers, if ok approves.
// It reports whether the record is gone.
func (t *table[K, V]) remove(id K, ok func(*V) bool) bool {
	t.ops.Add(1)
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec, exists := st.recs[id]; exists {
		if !ok(rec) {
			return false
		}
		delete(st.recs, id)
		delete(st.watchers, id)
		t.live.Add(-1)
		if t.journal != nil {
			t.journal.Delete(key(t.prefix, id))
		}
	}
	t.reconcile(st, id, nil)
	return true
}

// scan calls fn on every record, a stripe at a time under that stripe's
// lock. fn must neither change rec nor keep it: clone what outlives the call.
func (t *table[K, V]) scan(fn func(id K, rec *V)) {
	t.ops.Add(1)
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, rec := range st.recs {
			fn(id, rec)
		}
		st.mu.Unlock()
	}
}

// collect is the scan every table listing is: private copies of the
// records keep approves (nil: all of them).
func (t *table[K, V]) collect(keep func(*V) bool) []V {
	var out []V
	t.scan(func(_ K, rec *V) {
		if keep == nil || keep(rec) {
			out = append(out, t.clone(rec))
		}
	})
	return out
}

// markedIDs returns the marker index — O(markers), not O(records) — healing
// it on the way: a marker whose record is gone or moved on is dropped.
func (t *table[K, V]) markedIDs() []K {
	t.ops.Add(1)
	var out []K
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id := range st.marks {
			if t.reconcile(st, id, st.recs[id]) {
				out = append(out, id)
			}
		}
		st.mu.Unlock()
	}
	return out
}

// reindex reconciles every marker with its record, both ways.
func (t *table[K, V]) reindex() {
	t.markedIDs()
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, rec := range st.recs {
			t.reconcile(st, id, rec)
		}
		st.mu.Unlock()
	}
}

// load fills the table from a recovered kv — the only place a record is
// decoded from stored bytes. A durable store then keeps journaling to db,
// whose copy snapshots and checkpoints are cut from; an in-memory one drops
// the bytes it has just decoded.
func (t *table[K, V]) load(db kv.DB, durable bool) {
	each := func(prefix string, fn func(id K, raw []byte)) {
		for _, k := range db.Keys(prefix) {
			var id K
			raw, ok := db.Get(k)
			if hexID := k[len(prefix):]; ok && len(hexID) == hex.EncodedLen(len(id)) {
				if _, err := hex.Decode(id[:], []byte(hexID)); err == nil {
					fn(id, raw)
				}
			}
			if !durable {
				db.Delete(k)
			}
		}
	}
	each(t.prefix, func(id K, raw []byte) {
		if rec, err := codec.DecodeAs[V](raw); err == nil {
			t.stripe(id).recs[id] = &rec
			t.live.Add(1)
		}
	})
	if t.marked != nil {
		each(t.markPrefix, func(id K, _ []byte) { t.stripe(id).marks[id] = struct{}{} })
	}
	if durable {
		t.journal = db
	}
}

// dump writes every record and marker as the kv pairs a journal would hold.
func (t *table[K, V]) dump(put func(key string, value []byte)) {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, rec := range st.recs {
			put(key(t.prefix, id), codec.MustEncode(rec))
		}
		for id := range st.marks {
			put(key(t.markPrefix, id), nil)
		}
		st.mu.Unlock()
	}
}
