// Package core implements the programming model of the paper's Section 3.1:
// arbitrary functions as remote tasks, non-blocking task creation returning
// futures, get/wait on futures, futures as task arguments (dataflow
// dependencies), and task creation from within tasks (dynamic graphs).
// The same API surface is available to the driver (Client) and to running
// tasks (TaskContext), which is what R3 requires.
package core

import (
	"repro/internal/codec"
	"repro/internal/types"
)

// ObjectRef is a future [Baker & Hewitt 1977]: a handle to the eventual
// return value of a task (or a Put). It is cheap to copy and can be passed
// to other tasks as an argument, creating a dataflow edge.
type ObjectRef struct {
	ID types.ObjectID
	// Task is the producing task, when the ref came from a Submit on this
	// process (zero for Puts and refs reconstructed from bare IDs). The
	// runtime does not read it: ID.Producer names the producing task of any
	// return. Outside tests its one reader is the benchmark module
	// (bench/), and the field goes in the next change to that module.
	Task types.TaskID
}

// String implements fmt.Stringer.
func (r ObjectRef) String() string { return r.ID.String() }

// IsNil reports whether the ref is the zero value.
func (r ObjectRef) IsNil() bool { return r.ID.IsNil() }

// Ref[T] is a typed future produced by the generic wrappers. The type
// parameter exists purely at compile time; on the wire a Ref[T] is its
// ObjectRef.
type Ref[T any] struct {
	Ref ObjectRef
}

// Untyped returns the underlying ObjectRef.
func (r Ref[T]) Untyped() ObjectRef { return r.Ref }

// Arg converts values and refs into task arguments.
// Use Val for inline values and RefArg/TypedRefArg for futures.

// Val encodes v as an inline argument; it panics if v is unserializable
// (programming error caught at submission time, as in the paper's API).
func Val(v any) types.Arg { return types.ValueArg(codec.MustEncode(v)) }

// RefOf turns a future into a dependency argument.
func RefOf(r ObjectRef) types.Arg { return types.RefArg(r.ID) }

// TypedRefOf turns a typed future into a dependency argument.
func TypedRefOf[T any](r Ref[T]) types.Arg { return types.RefArg(r.Ref.ID) }

// Releaser is anything that can drop future references (lifetime
// subsystem): the driver Client or a running task's TaskContext.
type Releaser interface {
	Release(refs ...ObjectRef)
}

// ReleaseTyped drops references held on typed futures (see Client.Release).
func ReleaseTyped[T any](r Releaser, refs ...Ref[T]) {
	for _, ref := range refs {
		r.Release(ref.Ref)
	}
}
