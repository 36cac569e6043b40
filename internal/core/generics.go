package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/types"
)

// Submitter is anything tasks can be submitted through: the driver Client
// or a running task's TaskContext (R3).
type Submitter interface {
	// SubmitOpts is the canonical options-bearing submission path.
	SubmitOpts(function string, args []types.Arg, opts ...Option) ([]ObjectRef, error)
	// Submit is the legacy Call-struct path.
	//
	// Deprecated: use SubmitOpts.
	Submit(call Call) ([]ObjectRef, error)
}

// submitOne submits a single-return call through the options path. The
// full slice expression forces the append to copy, so a Bound handle's
// shared opts backing is never written through.
func submitOne[R any](s Submitter, name string, args []types.Arg, opts []Option) (Ref[R], error) {
	refs, err := s.SubmitOpts(name, args, append(opts[:len(opts):len(opts)], WithNumReturns(1))...)
	if err != nil {
		return Ref[R]{}, err
	}
	return Ref[R]{Ref: refs[0]}, nil
}

// Func0 is a registered remote function with no arguments.
type Func0[R any] struct{ Name string }

// Register0 registers f and returns its typed handle.
func Register0[R any](reg *Registry, name string, f func(*TaskContext) (R, error)) Func0[R] {
	reg.Register(name, func(tc *TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("core: %s expects 0 args, got %d", name, len(args))
		}
		r, err := f(tc)
		if err != nil {
			return nil, err
		}
		out, err := codec.Encode(r)
		if err != nil {
			return nil, err
		}
		return [][]byte{out}, nil
	})
	return Func0[R]{Name: name}
}

// Remote submits a call of the function.
func (fn Func0[R]) Remote(s Submitter, opts ...Option) (Ref[R], error) {
	return submitOne[R](s, fn.Name, nil, opts)
}

// Options binds submission options to the handle; the returned bound
// handle submits with them: fn.Options(core.WithPlacementGroup(pg, 0),
// core.WithMaxRetries(2)).Remote(driver).
func (fn Func0[R]) Options(opts ...Option) Bound0[R] {
	return Bound0[R]{fn: fn, opts: opts}
}

// Bound0 is a Func0 with submission options attached.
type Bound0[R any] struct {
	fn   Func0[R]
	opts []Option
}

// Remote submits a call with the bound options.
func (b Bound0[R]) Remote(s Submitter) (Ref[R], error) {
	return b.fn.Remote(s, b.opts...)
}

// Func1 is a registered remote function of one argument.
type Func1[A, R any] struct{ Name string }

// Register1 registers f and returns its typed handle.
func Register1[A, R any](reg *Registry, name string, f func(*TaskContext, A) (R, error)) Func1[A, R] {
	reg.Register(name, func(tc *TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("core: %s expects 1 arg, got %d", name, len(args))
		}
		a, err := codec.DecodeAs[A](args[0])
		if err != nil {
			return nil, fmt.Errorf("core: %s arg 0: %w", name, err)
		}
		r, err := f(tc, a)
		if err != nil {
			return nil, err
		}
		out, err := codec.Encode(r)
		if err != nil {
			return nil, err
		}
		return [][]byte{out}, nil
	})
	return Func1[A, R]{Name: name}
}

// Remote submits a call with an inline value argument.
func (fn Func1[A, R]) Remote(s Submitter, a A, opts ...Option) (Ref[R], error) {
	return submitOne[R](s, fn.Name, []types.Arg{Val(a)}, opts)
}

// RemoteRef submits a call whose argument is a future — the task will not
// run until the future's producer finishes (R5).
func (fn Func1[A, R]) RemoteRef(s Submitter, a Ref[A], opts ...Option) (Ref[R], error) {
	return submitOne[R](s, fn.Name, []types.Arg{TypedRefOf(a)}, opts)
}

// Options binds submission options to the handle (see Func0.Options).
func (fn Func1[A, R]) Options(opts ...Option) Bound1[A, R] {
	return Bound1[A, R]{fn: fn, opts: opts}
}

// Bound1 is a Func1 with submission options attached.
type Bound1[A, R any] struct {
	fn   Func1[A, R]
	opts []Option
}

// Remote submits a call with the bound options and an inline argument.
func (b Bound1[A, R]) Remote(s Submitter, a A) (Ref[R], error) {
	return b.fn.Remote(s, a, b.opts...)
}

// RemoteRef submits a call with the bound options and a future argument.
func (b Bound1[A, R]) RemoteRef(s Submitter, a Ref[A]) (Ref[R], error) {
	return b.fn.RemoteRef(s, a, b.opts...)
}

// Func2 is a registered remote function of two arguments.
type Func2[A, B, R any] struct{ Name string }

// Register2 registers f and returns its typed handle.
func Register2[A, B, R any](reg *Registry, name string, f func(*TaskContext, A, B) (R, error)) Func2[A, B, R] {
	reg.Register(name, func(tc *TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("core: %s expects 2 args, got %d", name, len(args))
		}
		a, err := codec.DecodeAs[A](args[0])
		if err != nil {
			return nil, fmt.Errorf("core: %s arg 0: %w", name, err)
		}
		b, err := codec.DecodeAs[B](args[1])
		if err != nil {
			return nil, fmt.Errorf("core: %s arg 1: %w", name, err)
		}
		r, err := f(tc, a, b)
		if err != nil {
			return nil, err
		}
		out, err := codec.Encode(r)
		if err != nil {
			return nil, err
		}
		return [][]byte{out}, nil
	})
	return Func2[A, B, R]{Name: name}
}

// Remote submits a call with two inline value arguments.
func (fn Func2[A, B, R]) Remote(s Submitter, a A, b B, opts ...Option) (Ref[R], error) {
	return submitOne[R](s, fn.Name, []types.Arg{Val(a), Val(b)}, opts)
}

// RemoteRefs submits a call with two future arguments.
func (fn Func2[A, B, R]) RemoteRefs(s Submitter, a Ref[A], b Ref[B], opts ...Option) (Ref[R], error) {
	return submitOne[R](s, fn.Name, []types.Arg{TypedRefOf(a), TypedRefOf(b)}, opts)
}

// RemoteMixed submits a call with a future first argument and an inline
// second argument — the common "apply model to new input" shape.
func (fn Func2[A, B, R]) RemoteMixed(s Submitter, a Ref[A], b B, opts ...Option) (Ref[R], error) {
	return submitOne[R](s, fn.Name, []types.Arg{TypedRefOf(a), Val(b)}, opts)
}

// Options binds submission options to the handle (see Func0.Options).
func (fn Func2[A, B, R]) Options(opts ...Option) Bound2[A, B, R] {
	return Bound2[A, B, R]{fn: fn, opts: opts}
}

// Bound2 is a Func2 with submission options attached.
type Bound2[A, B, R any] struct {
	fn   Func2[A, B, R]
	opts []Option
}

// Remote submits a call with the bound options and inline arguments.
func (b Bound2[A, B, R]) Remote(s Submitter, a A, bb B) (Ref[R], error) {
	return b.fn.Remote(s, a, bb, b.opts...)
}

// RemoteRefs submits a call with the bound options and future arguments.
func (b Bound2[A, B, R]) RemoteRefs(s Submitter, a Ref[A], bb Ref[B]) (Ref[R], error) {
	return b.fn.RemoteRefs(s, a, bb, b.opts...)
}

// RemoteMixed submits a call with the bound options, a future first
// argument, and an inline second argument.
func (b Bound2[A, B, R]) RemoteMixed(s Submitter, a Ref[A], bb B) (Ref[R], error) {
	return b.fn.RemoteMixed(s, a, bb, b.opts...)
}

// Get resolves a typed future through the driver client.
func Get[T any](ctx context.Context, cl *Client, ref Ref[T]) (T, error) {
	data, err := cl.Get(ctx, ref.Ref)
	if err != nil {
		var zero T
		return zero, err
	}
	return codec.DecodeAs[T](data)
}

// TaskGet resolves a typed future from inside a task.
func TaskGet[T any](tc *TaskContext, ref Ref[T]) (T, error) {
	data, err := tc.Get(ref.Ref)
	if err != nil {
		var zero T
		return zero, err
	}
	return codec.DecodeAs[T](data)
}

// PutTyped stores a value and returns a typed future to it.
func PutTyped[T any](cl *Client, v T) (Ref[T], error) {
	ref, err := cl.Put(v)
	return Ref[T]{Ref: ref}, err
}

// WaitRefs adapts Wait to typed futures.
func WaitRefs[T any](ctx context.Context, cl *Client, refs []Ref[T], numReturns int, timeout time.Duration) (ready, pending []Ref[T], err error) {
	raw := make([]ObjectRef, len(refs))
	byID := make(map[types.ObjectID]Ref[T], len(refs))
	for i, r := range refs {
		raw[i] = r.Ref
		byID[r.Ref.ID] = r
	}
	rdy, pnd, err := cl.Wait(ctx, raw, numReturns, timeout)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rdy {
		ready = append(ready, byID[r.ID])
	}
	for _, r := range pnd {
		pending = append(pending, byID[r.ID])
	}
	return ready, pending, nil
}
