// Package types defines the identifiers, task specifications, resource
// descriptions, and control-state records shared by every subsystem in the
// framework. It corresponds to the vocabulary of the paper's Section 3:
// tasks, futures (object IDs), resources, and the control-plane tables.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// IDSize is the length in bytes of every identifier in the system.
const IDSize = 16

// ObjectID names an immutable object (the value behind a future).
type ObjectID [IDSize]byte

// TaskID names a task submission.
type TaskID [IDSize]byte

// NodeID names a node (one local scheduler + object store + worker pool).
type NodeID [IDSize]byte

// WorkerID names a single worker within a node.
type WorkerID [IDSize]byte

// Nil IDs are the zero values; they mark "no parent" / "unassigned".
var (
	NilObjectID ObjectID
	NilTaskID   TaskID
	NilNodeID   NodeID
	NilWorkerID WorkerID
)

func shortHex(b []byte) string { return hex.EncodeToString(b[:6]) }

func (id ObjectID) String() string { return "obj-" + shortHex(id[:]) }
func (id TaskID) String() string   { return "task-" + shortHex(id[:]) }
func (id NodeID) String() string   { return "node-" + shortHex(id[:]) }
func (id WorkerID) String() string { return "worker-" + shortHex(id[:]) }

// Hex returns the full hexadecimal form, used as a control-plane key.
func (id ObjectID) Hex() string { return hex.EncodeToString(id[:]) }

// Hex returns the full hexadecimal form, used as a control-plane key.
func (id TaskID) Hex() string { return hex.EncodeToString(id[:]) }

// Hex returns the full hexadecimal form, used as a control-plane key.
func (id NodeID) Hex() string { return hex.EncodeToString(id[:]) }

// Hex returns the full hexadecimal form, used as a control-plane key.
func (id WorkerID) Hex() string { return hex.EncodeToString(id[:]) }

// IsNil reports whether the ID is the zero value.
func (id ObjectID) IsNil() bool { return id == NilObjectID }

// IsNil reports whether the ID is the zero value.
func (id TaskID) IsNil() bool { return id == NilTaskID }

// IsNil reports whether the ID is the zero value.
func (id NodeID) IsNil() bool { return id == NilNodeID }

// IsNil reports whether the ID is the zero value.
func (id WorkerID) IsNil() bool { return id == NilWorkerID }

// ParseObjectID parses the full hexadecimal form produced by Hex.
func ParseObjectID(s string) (ObjectID, error) {
	var id ObjectID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != IDSize {
		return id, fmt.Errorf("types: bad object id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// ParseTaskID parses the full hexadecimal form produced by Hex.
func ParseTaskID(s string) (TaskID, error) {
	var id TaskID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != IDSize {
		return id, fmt.Errorf("types: bad task id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// ParseNodeID parses the full hexadecimal form produced by Hex.
func ParseNodeID(s string) (NodeID, error) {
	var id NodeID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != IDSize {
		return id, fmt.Errorf("types: bad node id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// derive hashes tag ‖ id ‖ n — the one function behind every derived ID,
// and a pure one: lineage replay re-derives IDs and must land on the same
// bytes (DESIGN.md §4.1). The input is assembled in a stack array and
// Sum256 returns an array, so a derivation allocates nothing.
func derive(tag string, id [IDSize]byte, n uint64) (out [IDSize]byte) {
	var buf [4 + IDSize + 8]byte // the longest tag is "task"
	b := append(buf[:0], tag...)
	b = append(b, id[:]...)
	b = binary.BigEndian.AppendUint64(b, n)
	sum := sha256.Sum256(b)
	copy(out[:], sum[:])
	return out
}

// DeriveTaskID deterministically derives the ID of the index-th task
// submitted by parent. Determinism is what makes lineage replay idempotent
// (DESIGN.md §4.1): re-executing a parent produces byte-identical child IDs,
// so a reconstructed task resolves to the same objects as the original.
func DeriveTaskID(parent TaskID, index uint64) TaskID { return derive("task", parent, index) }

// ObjectIDForReturn derives the ID of the i-th return value of a task.
func ObjectIDForReturn(task TaskID, i int) ObjectID { return derive("ret", task, uint64(i)) }

// PutObjectID derives the ID for the i-th object Put directly (not returned
// by a task) by the given task or driver.
func PutObjectID(owner TaskID, i uint64) ObjectID { return derive("put", owner, i) }
