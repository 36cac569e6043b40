package core

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// TaskOptions is the resolved per-call submission intent: what the paper's
// Section 3.1 API leaves implicit, made first-class. Every submission path
// — raw SubmitOpts, the typed Options(...).Remote pipeline, actor calls,
// and the deprecated Call struct — funnels into one of these before a
// TaskSpec is built, so the scheduler sees one uniform surface.
type TaskOptions struct {
	// Resources is the task's demand; nil selects DefaultTaskResources.
	Resources types.Resources
	// NumReturns is the declared return count; 0 selects 1. The typed
	// pipeline pins it (Func1 returns one value by construction).
	NumReturns int
	// MaxRetries is how many times the task is retried on worker failure.
	MaxRetries int
	// Locality is a soft placement hint: prefer this node when feasible.
	Locality types.NodeID
	// Group/Bundle pin the task to a placement-group bundle; the task runs
	// on the node holding the bundle's reservation, drawing resources from
	// the reservation (gang scheduling, DESIGN.md §9).
	Group  types.PlacementGroupID
	Bundle int
	// Job attributes the task to a tenant job (DESIGN.md §14): scheduled
	// under the job's fair-share weight, metered against its quotas, and
	// reclaimed with it. Nil inherits the submitting task's job (driver
	// submissions with no job stay untenanted).
	Job types.JobID
	// Actor marks the task as an actor method or constructor; it is copied
	// to TaskSpec.Actor.
	Actor bool
}

// Option adjusts a TaskOptions. The same options apply to task submission
// (Func*.Options(...).Remote), raw SubmitOpts, and actor creation.
type Option func(*TaskOptions)

// WithResources sets the task's resource demand (R4).
func WithResources(r types.Resources) Option {
	return func(o *TaskOptions) { o.Resources = r }
}

// WithMaxRetries sets how many times the task is retried on failure.
func WithMaxRetries(n int) Option {
	return func(o *TaskOptions) { o.MaxRetries = n }
}

// WithNumReturns sets the declared return count (untyped submissions only;
// the typed pipeline overrides it).
func WithNumReturns(n int) Option {
	return func(o *TaskOptions) { o.NumReturns = n }
}

// WithLocality hints the scheduler to prefer the given node. The hint is
// soft: an infeasible or dead node falls back to normal placement.
func WithLocality(node types.NodeID) Option {
	return func(o *TaskOptions) { o.Locality = node }
}

// WithPlacementGroup pins the task to bundle index `bundle` of a placement
// group created via Client.CreatePlacementGroup. The task is admitted only
// against the bundle's gang-scheduled reservation.
func WithPlacementGroup(id types.PlacementGroupID, bundle int) Option {
	return func(o *TaskOptions) { o.Group = id; o.Bundle = bundle }
}

// WithJob attributes the task (and, transitively, its descendants) to a
// job created via Client.CreateJob. Submission is admitted against the
// job's quotas and fails fast with ErrJobNotFound / ErrJobTerminated /
// ErrJobQuota when it cannot be.
func WithJob(id types.JobID) Option {
	return func(o *TaskOptions) { o.Job = id }
}

// WithActor marks the task as an actor method or constructor. The actor
// runtime applies it to every submission it makes; applications normally
// never need it directly.
func WithActor() Option {
	return func(o *TaskOptions) { o.Actor = true }
}

// buildOptions folds opts over the zero TaskOptions.
func buildOptions(opts []Option) TaskOptions {
	var o TaskOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// Typed option errors surfaced at submission time.
var (
	// ErrInvalidOptions marks a structurally invalid submission (bad bundle
	// index, demand exceeding the bundle, ...).
	ErrInvalidOptions = errors.New("core: invalid task options")
	// ErrGroupNotFound marks a submission against an unknown placement
	// group — create the group (and keep its handle) before submitting.
	ErrGroupNotFound = errors.New("core: placement group not found")
	// ErrGroupRemoved marks a submission against (or a member task of) a
	// removed placement group.
	ErrGroupRemoved = errors.New("core: placement group removed")
)

// validateGroupOptions checks a grouped submission: the group must exist,
// the bundle index must be in range, and the task's demand must fit the
// bundle's reservation (a demand the bundle can never satisfy would park
// the task forever). The group spec is immutable, so each caller resolves
// it from the control plane once and validates from cache afterwards —
// hot-path member submissions (the Section 4.2 shape) pay no per-submit
// round trip. Removal is consequently detected only on the first use; a
// group removed later fails its members asynchronously through the gang
// pass with the same typed error.
func (c *caller) validateGroupOptions(o *TaskOptions, demand types.Resources) error {
	var spec types.PlacementGroupSpec
	if cached, ok := c.groups.Load(o.Group); ok {
		spec = cached.(types.PlacementGroupSpec)
	} else {
		info, ok := c.backend.Control().GetPlacementGroup(o.Group)
		if !ok {
			return fmt.Errorf("%w: %v", ErrGroupNotFound, o.Group)
		}
		if info.State == types.GroupRemoved {
			return fmt.Errorf("%w: %v", ErrGroupRemoved, o.Group)
		}
		spec = info.Spec
		c.groups.Store(o.Group, spec)
	}
	if o.Bundle < 0 || o.Bundle >= len(spec.Bundles) {
		return fmt.Errorf("%w: bundle index %d out of range [0,%d) in %v",
			ErrInvalidOptions, o.Bundle, len(spec.Bundles), o.Group)
	}
	if !demand.FeasibleOn(spec.Bundles[o.Bundle].Resources) {
		return fmt.Errorf("%w: demand %v exceeds bundle %d reservation %v of %v",
			ErrInvalidOptions, demand, o.Bundle, spec.Bundles[o.Bundle].Resources, o.Group)
	}
	return nil
}
