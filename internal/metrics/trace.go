package metrics

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
)

// SpanRecord is one finished span as buffered on a node and shipped to the
// control plane. Recorders set the raw 16-byte IDs (this package stays
// dependency-free, so they are plain arrays): formatting an ID costs two
// allocations, and the exec span is recorded for every task. Readers fill
// the hex forms (FormatIDs). Zero or empty fields mean "not applicable".
// Trace carries the submit-side trace context propagated through
// types.TaskSpec, so data-plane work (a spill, a pull chunk, a drain
// migration) can be stitched into the owning task's timeline even when it
// happens on a node the task never ran on.
type SpanRecord struct {
	Name     string   // e.g. "objectstore.spill"
	Cat      string   // coarse family: "spill", "pull", "rpc", "sched", ...
	Task     string   // owning task ID (hex), filled by readers
	Object   string   // object ID (hex) the span moved, filled by readers
	TaskID   [16]byte // owning task, if known at record time
	ObjectID [16]byte // object the span moved, if any
	Trace    uint64   // trace context inherited from the submitting driver/task
	Node     string   // node that recorded the span
	StartNs  int64    // cluster-epoch nanoseconds (see Tracer clock note)
	DurNs    int64
	Detail   string
}

// FormatIDs fills Task and Object from the raw IDs, where the recorder set
// them and the hex form is not there yet.
func (r *SpanRecord) FormatIDs() {
	if r.Task == "" && r.TaskID != [16]byte{} {
		r.Task = hex.EncodeToString(r.TaskID[:])
	}
	if r.Object == "" && r.ObjectID != [16]byte{} {
		r.Object = hex.EncodeToString(r.ObjectID[:])
	}
}

// Span is an in-flight span handle returned by Tracer.Begin. It is a plain
// value: set the exported fields you know, then call End. A zero Span
// (from a nil tracer) is inert.
type Span struct {
	Name     string
	Cat      string
	TaskID   [16]byte
	ObjectID [16]byte
	Trace    uint64
	Detail   string

	start int64
	t     *Tracer
}

// Tracer buffers finished spans in a fixed-capacity ring (drop-oldest).
// The ring is mutex-protected: spans finish at data-plane rates (per
// spill/pull/RPC, not per counter increment), so a lock is cheap here and
// keeps Drain race-free under the chaos tests' -race runs.
//
// Clock: now() must return cluster-epoch nanoseconds. Nodes build it from
// one boot-time control-plane NowNs plus a local monotonic offset, so span
// timestamps align with task-table timestamps without per-span RPCs.
type Tracer struct {
	mu      sync.Mutex
	buf     []SpanRecord
	start   int // index of oldest record
	n       int // live records
	dropped atomic.Int64
	// drainMu serializes Drain. spare is the empty ring Drain swaps in for
	// buf, so that the copy runs outside mu; only Drain touches it.
	drainMu sync.Mutex
	spare   []SpanRecord

	node string
	now  func() int64
}

// NewTracer returns a tracer buffering up to capacity spans recorded on
// node. now supplies cluster-epoch nanosecond timestamps.
func NewTracer(capacity int, node string, now func() int64) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{buf: make([]SpanRecord, capacity), node: node, now: now}
}

// Begin starts a span. Safe on a nil receiver: returns an inert Span.
func (t *Tracer) Begin(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.BeginAt(cat, name, t.now())
}

// BeginAt starts a span at startNs, a reading of the tracer's clock the
// caller already made. Safe on a nil receiver.
func (t *Tracer) BeginAt(cat, name string, startNs int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{Cat: cat, Name: name, start: startNs, t: t}
}

// End finishes the span, buffers it and returns its duration in
// nanoseconds. Inert on a zero Span, where it returns 0.
func (s Span) End() int64 {
	if s.t == nil {
		return 0
	}
	return s.EndAt(s.t.now())
}

// EndAt is End at endNs, a reading of the tracer's clock the caller already
// made.
func (s Span) EndAt(endNs int64) int64 {
	t := s.t
	if t == nil {
		return 0
	}
	rec := SpanRecord{
		Name: s.Name, Cat: s.Cat, TaskID: s.TaskID, ObjectID: s.ObjectID,
		Trace: s.Trace, Detail: s.Detail, Node: t.node,
		StartNs: s.start, DurNs: endNs - s.start,
	}
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.buf[t.start] = rec // overwrite oldest
		t.start = (t.start + 1) % len(t.buf)
		t.dropped.Add(1)
	} else {
		t.buf[(t.start+t.n)%len(t.buf)] = rec
		t.n++
	}
	t.mu.Unlock()
	return rec.DurNs
}

// Drain removes and returns all buffered spans (oldest first). Nodes call
// it on each heartbeat to ship spans to the control plane. The ring is
// swapped for an empty one under the lock and copied outside it, so spans
// ending meanwhile wait only for the swap; they go to the next Drain.
// Nil-safe.
func (t *Tracer) Drain() []SpanRecord {
	if t == nil {
		return nil
	}
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	if t.spare == nil {
		t.spare = make([]SpanRecord, len(t.buf))
	}
	t.mu.Lock()
	ring, start, n := t.buf, t.start, t.n
	if n > 0 {
		t.buf, t.spare, t.start, t.n = t.spare, ring, 0, 0
	}
	t.mu.Unlock()
	if n == 0 {
		return nil
	}
	out := make([]SpanRecord, n)
	k := copy(out, ring[start:min(start+n, len(ring))])
	copy(out[k:], ring) // the part that wrapped round
	return out
}

// Dropped returns the cumulative count of spans lost to ring overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Node returns the tracer's node label ("" on nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}
