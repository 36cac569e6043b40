package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/types"
)

// Binary fast path for the hot control-plane record types. Profiling the
// task-throughput benchmark showed ~2/3 of cluster CPU inside encoding/gob,
// almost all of it *recompiling* encode/decode engines: every kv record
// read (scheduler placement scans, wait polls, status stamps) constructs a
// fresh gob decoder, and gob's per-stream type negotiation makes decoder
// reuse across records impossible. The record types below are small, fixed
// structs, so they get a hand-rolled reflection-free wire form under a
// dedicated tag. Everything else still rides gob; a payload written by the
// fast path is self-describing via its type byte, so the two forms coexist
// in the same store and WAL.
//
// Keep these encoders in lockstep with the struct definitions in
// internal/types — a new field must be added to both sides here (the
// round-trip tests in fast_test.go enforce this with reflection over the
// field sets).

// Type bytes following tagBin.
const (
	binObjectInfo      = 0x01
	binTaskState       = 0x02
	binTaskSpec        = 0x03
	binNodeInfo        = 0x04
	binTaskLedgerBatch = 0x05
	binJobInfo         = 0x06
)

// encodeFast serializes the hot types; ok=false means "not a fast type,
// fall back to gob".
func encodeFast(v any) ([]byte, bool) {
	switch x := v.(type) {
	case types.ObjectInfo:
		return appendObjectInfo(record(binObjectInfo, objectRecordCap), &x), true
	case *types.ObjectInfo:
		return appendObjectInfo(record(binObjectInfo, objectRecordCap), x), true
	case types.TaskState:
		return appendTaskState(record(binTaskState, taskRecordCap), &x), true
	case *types.TaskState:
		return appendTaskState(record(binTaskState, taskRecordCap), x), true
	case types.TaskSpec:
		return appendOrigin(appendTaskSpec(record(binTaskSpec, taskRecordCap), &x), x.Origin), true
	case *types.TaskSpec:
		return appendOrigin(appendTaskSpec(record(binTaskSpec, taskRecordCap), x), x.Origin), true
	case types.NodeInfo:
		return appendNodeInfo([]byte{tagBin, binNodeInfo}, &x), true
	case *types.NodeInfo:
		return appendNodeInfo([]byte{tagBin, binNodeInfo}, x), true
	case types.TaskLedgerBatch:
		return appendTaskLedgerBatch([]byte{tagBin, binTaskLedgerBatch}, &x), true
	case *types.TaskLedgerBatch:
		return appendTaskLedgerBatch([]byte{tagBin, binTaskLedgerBatch}, x), true
	case types.JobInfo:
		return appendJobInfo([]byte{tagBin, binJobInfo}, &x), true
	case *types.JobInfo:
		return appendJobInfo([]byte{tagBin, binJobInfo}, x), true
	}
	return nil, false
}

// Initial capacities of the records written on every task's path, so that
// encoding the common record is one allocation: grown by append from the
// two header bytes, a record is reallocated at every doubling on the way.
// A TaskState of a task without inline arguments is about 270 bytes —
// Origin's 16 put it just past the 256-byte step — and an ObjectInfo with
// two locations, which is what a delivered result has, about 150.
const (
	taskRecordCap   = 320
	objectRecordCap = 192
)

// record starts a payload of the given type with room for capacity bytes.
func record(kind byte, capacity int) []byte {
	b := make([]byte, 2, capacity)
	b[0], b[1] = tagBin, kind
	return b
}

// decodeFast deserializes a tagBin payload (data excludes the tag byte).
// The record readers fill out in place. Returned by value, one temporary of
// every record type made this frame 1.2 KB, at the bottom of every
// control-plane call chain — enough to push a task's goroutine, already deep
// in a delivery, through one more stack doubling.
func decodeFast(data []byte, out any) error {
	if len(data) == 0 {
		return fmt.Errorf("codec: truncated binary payload")
	}
	r := &binReader{buf: data[1:]}
	var err error
	switch data[0] {
	case binObjectInfo:
		p, ok := out.(*types.ObjectInfo)
		if !ok {
			return fmt.Errorf("codec: binary ObjectInfo payload into %T", out)
		}
		err = r.objectInfo(p)
	case binTaskState:
		p, ok := out.(*types.TaskState)
		if !ok {
			return fmt.Errorf("codec: binary TaskState payload into %T", out)
		}
		err = r.taskState(p)
	case binTaskSpec:
		p, ok := out.(*types.TaskSpec)
		if !ok {
			return fmt.Errorf("codec: binary TaskSpec payload into %T", out)
		}
		if err = r.taskSpec(p); err == nil {
			p.Origin, err = r.origin(), r.err
		}
	case binNodeInfo:
		p, ok := out.(*types.NodeInfo)
		if !ok {
			return fmt.Errorf("codec: binary NodeInfo payload into %T", out)
		}
		err = r.nodeInfo(p)
	case binTaskLedgerBatch:
		p, ok := out.(*types.TaskLedgerBatch)
		if !ok {
			return fmt.Errorf("codec: binary TaskLedgerBatch payload into %T", out)
		}
		err = r.taskLedgerBatch(p)
	case binJobInfo:
		p, ok := out.(*types.JobInfo)
		if !ok {
			return fmt.Errorf("codec: binary JobInfo payload into %T", out)
		}
		err = r.jobInfo(p)
	default:
		return fmt.Errorf("codec: unknown binary type 0x%02x", data[0])
	}
	if err != nil {
		return fmt.Errorf("codec: binary decode into %T: %w", out, err)
	}
	return nil
}

// --- encoders (append-style, one allocation for typical records) ---

func appendObjectInfo(b []byte, o *types.ObjectInfo) []byte {
	b = append(b, o.ID[:]...)
	b = binary.AppendVarint(b, o.Size)
	b = append(b, o.Producer[:]...)
	b = binary.AppendVarint(b, int64(o.State))
	b = appendNodeIDs(b, o.Locations)
	b = binary.AppendVarint(b, o.RefCount)
	b = appendBool(b, o.EverRetained)
	b = appendU64s(b, o.RefOps)
	b = appendNodeIDs(b, o.SpilledOn)
	b = binary.AppendUvarint(b, uint64(len(o.Holders)))
	// Sorted for a deterministic wire form (snapshots diff cleanly).
	keys := make([]types.NodeID, 0, len(o.Holders))
	for k := range o.Holders {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b types.NodeID) int { return bytes.Compare(a[:], b[:]) })
	for _, k := range keys {
		b = append(b, k[:]...)
		b = binary.AppendVarint(b, o.Holders[k])
	}
	// LineagePins trails the record and is left out at zero, like Origin
	// (appendOrigin): a record without pins is byte for byte what it was
	// before the field existed, in both directions.
	if o.LineagePins != 0 {
		b = binary.AppendVarint(b, o.LineagePins)
	}
	return b
}

// appendTaskSpec writes every spec field but Origin, which trails the
// enclosing record (see appendOrigin).
func appendTaskSpec(b []byte, s *types.TaskSpec) []byte {
	b = append(b, s.ID[:]...)
	b = appendString(b, s.Function)
	b = binary.AppendUvarint(b, uint64(len(s.Args)))
	for i := range s.Args {
		a := &s.Args[i]
		b = appendBool(b, a.IsRef)
		b = append(b, a.Ref[:]...)
		b = appendBytes(b, a.Value)
	}
	b = binary.AppendVarint(b, int64(s.NumReturns))
	b = appendResources(b, s.Resources)
	b = append(b, s.Parent[:]...)
	b = binary.AppendUvarint(b, s.SubmitIndex)
	b = binary.AppendVarint(b, int64(s.MaxRetries))
	b = append(b, s.Locality[:]...)
	b = append(b, s.Group[:]...)
	b = binary.AppendVarint(b, int64(s.Bundle))
	b = binary.AppendUvarint(b, s.TraceID)
	b = append(b, s.Job[:]...)
	b = appendBool(b, s.Actor)
	return b
}

// appendOrigin ends a TaskSpec or TaskState record with the spec's Origin.
// The field trails the whole record and is left out when nil, so a record
// written before the field existed (snapshots, WALs) is byte for byte the
// encoding of the same record with a nil Origin, and still decodes.
func appendOrigin(b []byte, origin types.NodeID) []byte {
	if origin.IsNil() {
		return b
	}
	return append(b, origin[:]...)
}

func appendJobInfo(b []byte, j *types.JobInfo) []byte {
	b = append(b, j.Spec.ID[:]...)
	b = appendString(b, j.Spec.Name)
	b = binary.AppendVarint(b, int64(j.Spec.Weight))
	b = binary.AppendVarint(b, int64(j.Spec.Quota.MaxLiveTasks))
	b = binary.AppendVarint(b, int64(j.Spec.Quota.MaxQueueDepth))
	b = binary.AppendVarint(b, j.Spec.Quota.MaxObjectBytes)
	b = binary.AppendVarint(b, int64(j.State))
	b = binary.AppendVarint(b, j.CreatedNs)
	b = binary.AppendVarint(b, j.StoppingNs)
	b = binary.AppendVarint(b, j.StoppedNs)
	b = binary.AppendVarint(b, j.LastTransitionNs)
	b = binary.AppendVarint(b, j.PurgedNs)
	b = appendU64s(b, j.MutOps)
	return b
}

func appendTaskState(b []byte, t *types.TaskState) []byte {
	b = appendTaskSpec(b, &t.Spec)
	b = binary.AppendVarint(b, int64(t.Status))
	b = append(b, t.Node[:]...)
	b = append(b, t.Worker[:]...)
	b = appendString(b, t.Error)
	b = binary.AppendVarint(b, int64(t.Retries))
	b = binary.AppendVarint(b, t.SubmittedNs)
	b = binary.AppendVarint(b, t.ScheduledNs)
	b = binary.AppendVarint(b, t.StartedNs)
	b = binary.AppendVarint(b, t.FinishedNs)
	b = binary.AppendVarint(b, t.LastTransitionNs)
	b = appendU64s(b, t.MutOps)
	b = append(b, t.Owner[:]...)
	b = binary.AppendUvarint(b, t.OwnerSeq)
	return appendOrigin(b, t.Spec.Origin)
}

func appendTaskStateDelta(b []byte, d *types.TaskStateDelta) []byte {
	b = append(b, d.ID[:]...)
	b = append(b, d.Owner[:]...)
	b = binary.AppendUvarint(b, d.Seq)
	b = binary.AppendVarint(b, int64(d.Status))
	b = append(b, d.Node[:]...)
	b = append(b, d.Worker[:]...)
	b = appendString(b, d.Error)
	b = binary.AppendVarint(b, int64(d.Retries))
	b = binary.AppendVarint(b, d.SubmittedNs)
	b = binary.AppendVarint(b, d.ScheduledNs)
	b = binary.AppendVarint(b, d.StartedNs)
	b = binary.AppendVarint(b, d.FinishedNs)
	b = binary.AppendVarint(b, d.LastTransitionNs)
	return b
}

// appendTaskLedgerBatch writes the deltas, then the token, then the specs
// of the births among them, each after its delta's index. The births trail
// the record and are left out when there are none, so a batch without one
// is byte for byte what it was before births existed.
func appendTaskLedgerBatch(b []byte, t *types.TaskLedgerBatch) []byte {
	b = append(b, t.Node[:]...)
	b = binary.AppendUvarint(b, uint64(len(t.Deltas)))
	births := 0
	for i := range t.Deltas {
		b = appendTaskStateDelta(b, &t.Deltas[i])
		if t.Deltas[i].Spec != nil {
			births++
		}
	}
	b = binary.AppendUvarint(b, t.Op)
	if births == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(births))
	for i := range t.Deltas {
		if s := t.Deltas[i].Spec; s != nil {
			b = binary.AppendUvarint(b, uint64(i))
			b = appendTaskSpec(b, s)
			b = append(b, s.Origin[:]...)
		}
	}
	return b
}

func appendNodeInfo(b []byte, n *types.NodeInfo) []byte {
	b = append(b, n.ID[:]...)
	b = appendString(b, n.Addr)
	b = appendResources(b, n.Total)
	b = appendBool(b, n.Alive)
	b = binary.AppendVarint(b, n.LastSeen)
	b = binary.AppendVarint(b, int64(n.State))
	b = binary.AppendVarint(b, n.DrainNs)
	b = binary.AppendVarint(b, int64(n.QueueLen))
	b = appendResources(b, n.Available)
	b = binary.AppendVarint(b, n.Store.UsedBytes)
	b = binary.AppendVarint(b, n.Store.SpilledBytes)
	b = binary.AppendVarint(b, int64(n.Store.Objects))
	b = binary.AppendVarint(b, n.Store.Spills)
	b = binary.AppendVarint(b, n.Store.Restores)
	b = binary.AppendVarint(b, n.Store.Reclaimed)
	b = binary.AppendVarint(b, n.Store.TierEvicted)
	b = appendU64s(b, n.MutOps)
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendNodeIDs(b []byte, ids []types.NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for i := range ids {
		b = append(b, ids[i][:]...)
	}
	return b
}

func appendU64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendResources(b []byte, r types.Resources) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(r[k]))
		b = append(b, bits[:]...)
	}
	return b
}

// --- decoder ---

// binReader walks a binary payload; the first out-of-bounds read latches an
// error and every later read returns zero values, so field decoders stay
// unconditional and the error is checked once at the end.
type binReader struct {
	buf []byte
	pos int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated at offset %d", r.pos)
	}
}

func (r *binReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.pos {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) bool() bool { b := r.take(1); return len(b) == 1 && b[0] != 0 }

func (r *binReader) id16() (id [16]byte) {
	copy(id[:], r.take(16))
	return id
}

// count validates a decoded element count against the bytes remaining, with
// perElem the minimum wire size of one element — a corrupt length prefix
// fails fast instead of allocating gigabytes.
func (r *binReader) count(perElem int) int {
	return r.bounded(r.uvarint(), perElem)
}

// bounded is count for a length already read. The comparison is in uint64
// against remaining/perElem: the length came off a socket, and 1<<63
// converted to int first is negative and passes any signed check.
func (r *binReader) bounded(n uint64, perElem int) int {
	if r.err == nil && n > uint64(len(r.buf)-r.pos)/uint64(perElem) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *binReader) string() string {
	n := r.count(1)
	return string(r.take(n))
}

func (r *binReader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	return clone(r.take(n))
}

func (r *binReader) nodeIDs() []types.NodeID {
	n := r.count(16)
	if n == 0 {
		return nil
	}
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = r.id16()
	}
	return ids
}

func (r *binReader) u64s() []uint64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.uvarint()
	}
	return vs
}

func (r *binReader) resources() types.Resources {
	n := r.count(9) // a name's length byte and a quantity
	if n == 0 {
		return nil
	}
	res := make(types.Resources, n)
	for i := 0; i < n; i++ {
		k := r.string()
		bits := r.take(8)
		if r.err != nil {
			return nil
		}
		res[k] = math.Float64frombits(binary.LittleEndian.Uint64(bits))
	}
	return res
}

func (r *binReader) objectInfo(o *types.ObjectInfo) error {
	*o = types.ObjectInfo{}
	o.ID = r.id16()
	o.Size = r.varint()
	o.Producer = r.id16()
	o.State = types.ObjectState(r.varint())
	o.Locations = r.nodeIDs()
	o.RefCount = r.varint()
	o.EverRetained = r.bool()
	o.RefOps = r.u64s()
	o.SpilledOn = r.nodeIDs()
	if n := r.count(17); n > 0 {
		o.Holders = make(map[types.NodeID]int64, n)
		for i := 0; i < n; i++ {
			k := types.NodeID(r.id16())
			o.Holders[k] = r.varint()
		}
	}
	if r.err == nil && r.pos < len(r.buf) {
		o.LineagePins = r.varint()
	}
	return r.err
}

// origin reads the optional trailing Origin of a TaskSpec or TaskState
// record (see appendOrigin): absent means nil.
func (r *binReader) origin() (id types.NodeID) {
	if r.err == nil && r.pos < len(r.buf) {
		id = r.id16()
	}
	return id
}

// taskSpec reads every spec field but Origin, which trails the enclosing
// record.
func (r *binReader) taskSpec(s *types.TaskSpec) error {
	*s = types.TaskSpec{}
	s.ID = r.id16()
	s.Function = r.string()
	if n := r.count(18); n > 0 {
		s.Args = make([]types.Arg, n)
		for i := range s.Args {
			s.Args[i].IsRef = r.bool()
			s.Args[i].Ref = r.id16()
			s.Args[i].Value = r.bytes()
		}
	}
	s.NumReturns = int(r.varint())
	s.Resources = r.resources()
	s.Parent = r.id16()
	s.SubmitIndex = r.uvarint()
	s.MaxRetries = int(r.varint())
	s.Locality = r.id16()
	s.Group = r.id16()
	s.Bundle = int(r.varint())
	s.TraceID = r.uvarint()
	s.Job = r.id16()
	s.Actor = r.bool()
	return r.err
}

func (r *binReader) jobInfo(j *types.JobInfo) error {
	*j = types.JobInfo{}
	j.Spec.ID = r.id16()
	j.Spec.Name = r.string()
	j.Spec.Weight = int(r.varint())
	j.Spec.Quota.MaxLiveTasks = int(r.varint())
	j.Spec.Quota.MaxQueueDepth = int(r.varint())
	j.Spec.Quota.MaxObjectBytes = r.varint()
	j.State = types.JobState(r.varint())
	j.CreatedNs = r.varint()
	j.StoppingNs = r.varint()
	j.StoppedNs = r.varint()
	j.LastTransitionNs = r.varint()
	j.PurgedNs = r.varint()
	j.MutOps = r.u64s()
	return r.err
}

func (r *binReader) taskState(t *types.TaskState) error {
	*t = types.TaskState{}
	if err := r.taskSpec(&t.Spec); err != nil {
		return err
	}
	t.Status = types.TaskStatus(r.varint())
	t.Node = r.id16()
	t.Worker = r.id16()
	t.Error = r.string()
	t.Retries = int(r.varint())
	t.SubmittedNs = r.varint()
	t.ScheduledNs = r.varint()
	t.StartedNs = r.varint()
	t.FinishedNs = r.varint()
	t.LastTransitionNs = r.varint()
	t.MutOps = r.u64s()
	t.Owner = r.id16()
	t.OwnerSeq = r.uvarint()
	t.Spec.Origin = r.origin()
	return r.err
}

func (r *binReader) taskStateDelta() types.TaskStateDelta {
	var d types.TaskStateDelta
	d.ID = r.id16()
	d.Owner = r.id16()
	d.Seq = r.uvarint()
	d.Status = types.TaskStatus(r.varint())
	d.Node = r.id16()
	d.Worker = r.id16()
	d.Error = r.string()
	d.Retries = int(r.varint())
	d.SubmittedNs = r.varint()
	d.ScheduledNs = r.varint()
	d.StartedNs = r.varint()
	d.FinishedNs = r.varint()
	d.LastTransitionNs = r.varint()
	return d
}

func (r *binReader) taskLedgerBatch(t *types.TaskLedgerBatch) error {
	*t = types.TaskLedgerBatch{}
	t.Node = r.id16()
	// A delta is at least two IDs plus a handful of varints.
	if n := r.count(32); n > 0 {
		t.Deltas = make([]types.TaskStateDelta, n)
		for i := range t.Deltas {
			t.Deltas[i] = r.taskStateDelta()
		}
	}
	t.Op = r.uvarint()
	if r.err != nil || r.pos == len(r.buf) {
		return r.err
	}
	// A birth is at least its index, a spec's IDs and its Origin.
	for n := r.count(100); n > 0 && r.err == nil; n-- {
		i := r.uvarint()
		if i >= uint64(len(t.Deltas)) {
			return fmt.Errorf("codec: birth of delta %d in a batch of %d", i, len(t.Deltas))
		}
		spec := new(types.TaskSpec)
		if r.taskSpec(spec) != nil {
			break
		}
		spec.Origin = r.id16()
		t.Deltas[i].Spec = spec
	}
	return r.err
}

func (r *binReader) nodeInfo(n *types.NodeInfo) error {
	*n = types.NodeInfo{}
	n.ID = r.id16()
	n.Addr = r.string()
	n.Total = r.resources()
	n.Alive = r.bool()
	n.LastSeen = r.varint()
	n.State = types.NodeState(r.varint())
	n.DrainNs = r.varint()
	n.QueueLen = int(r.varint())
	n.Available = r.resources()
	n.Store.UsedBytes = r.varint()
	n.Store.SpilledBytes = r.varint()
	n.Store.Objects = int(r.varint())
	n.Store.Spills = r.varint()
	n.Store.Restores = r.varint()
	n.Store.Reclaimed = r.varint()
	n.Store.TierEvicted = r.varint()
	n.MutOps = r.u64s()
	return r.err
}
