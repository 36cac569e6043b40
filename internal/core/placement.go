package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"repro/internal/gcs"
	"repro/internal/types"
)

// PlacementGroup is the driver's handle to a gang-scheduled reservation: a
// set of resource bundles the global scheduler admits all-or-nothing
// (DESIGN.md §9). Tasks and actors join a bundle with Bundle(i) /
// WithPlacementGroup.
type PlacementGroup struct {
	ID   types.PlacementGroupID
	spec types.PlacementGroupSpec
	cl   *Client
}

// CreatePlacementGroup registers a placement group with the control plane
// and returns its handle. The group starts Pending; the global scheduler's
// gang pass reserves all bundles atomically once the cluster can fit them
// (use WaitReady to block on that). bundles lists each bundle's resource
// reservation in index order.
func (cl *Client) CreatePlacementGroup(name string, strategy types.PlacementStrategy, bundles []types.Resources) (*PlacementGroup, error) {
	var id types.PlacementGroupID
	if _, err := rand.Read(id[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	spec := types.PlacementGroupSpec{ID: id, Name: name, Strategy: strategy}
	for _, r := range bundles {
		spec.Bundles = append(spec.Bundles, types.Bundle{Resources: r.Clone()})
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !cl.backend.Control().CreatePlacementGroup(spec) {
		// The ID is freshly random, so a duplicate means the control plane
		// could not be reached (or a pathological collision); either way the
		// group's existence is unconfirmed.
		if _, ok := cl.backend.Control().GetPlacementGroup(id); !ok {
			return nil, fmt.Errorf("core: create placement group: control plane unavailable")
		}
	}
	return &PlacementGroup{ID: id, spec: spec, cl: cl}, nil
}

// RemovePlacementGroup removes the group: its bundle reservations are
// released cluster-wide and pending member tasks fail with ErrGroupRemoved.
// This client's cached view of the group drops too, so its own later
// submissions fail at submit time; other clients' members fail
// asynchronously through the gang pass with the same typed error. An
// error means the control plane could not confirm the removal (the group
// may still hold its reservations) — retry it.
func (cl *Client) RemovePlacementGroup(id types.PlacementGroupID) error {
	cl.groups.Delete(id)
	live := []types.PlacementGroupState{types.GroupPending, types.GroupPlacing, types.GroupPlaced}
	if cl.backend.Control().CASPlacementGroupState(id, live, types.GroupRemoved, nil, 0) {
		return nil
	}
	// A false return is also the idempotent already-removed answer;
	// disambiguate from "unreachable" by reading the record back.
	if info, ok := cl.backend.Control().GetPlacementGroup(id); ok && info.State == types.GroupRemoved {
		return nil
	}
	return fmt.Errorf("core: remove placement group %v: control plane did not confirm", id)
}

// Bundle returns the option pinning a task (or actor) to bundle i.
func (pg *PlacementGroup) Bundle(i int) Option { return WithPlacementGroup(pg.ID, i) }

// NumBundles returns the bundle count.
func (pg *PlacementGroup) NumBundles() int { return len(pg.spec.Bundles) }

// Remove removes the group (see Client.RemovePlacementGroup).
func (pg *PlacementGroup) Remove() error { return pg.cl.RemovePlacementGroup(pg.ID) }

// WaitReady blocks until the group is Placed or the timeout expires. A
// negative timeout waits indefinitely. Removal surfaces ErrGroupRemoved;
// a timeout reports the group's last observed state.
func (pg *PlacementGroup) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctrl := pg.cl.backend.Control()
	sub := ctrl.Subscribe(gcs.TopicPlacementGroups, types.NilPlacementGroupID)
	defer sub.Close()

	var deadline <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	// The subscription delivers every transition; the poll is only the
	// missed-edge backstop, so it stays coarse — a driver waiting tens of
	// seconds for capacity must not hammer the control plane.
	poll := time.NewTicker(250 * time.Millisecond)
	defer poll.Stop()
	last := types.GroupPending
	settle := func(state types.PlacementGroupState) error {
		last = state
		switch state {
		case types.GroupPlaced:
			return nil
		case types.GroupRemoved:
			return fmt.Errorf("%w: %v", ErrGroupRemoved, pg.ID)
		}
		return errStillWaiting
	}
	if info, ok := ctrl.GetPlacementGroup(pg.ID); ok {
		if err := settle(info.State); err != errStillWaiting {
			return err
		}
	}
	// A closed subscription channel (control plane unreachable) must
	// disable its case, not become permanently ready — otherwise the wait
	// degenerates into a zero-backoff request storm.
	events := sub.C()
	for {
		select {
		case raw, ok := <-events:
			if !ok {
				events = nil // fall back to the poll ticker alone
				continue
			}
			// The event payload carries the full record: transitions of
			// other groups (the channel is cluster-wide) cost no read RPC.
			info, err := gcs.DecodeGroupEvent(raw)
			if err != nil || info.Spec.ID != pg.ID {
				continue
			}
			if err := settle(info.State); err != errStillWaiting {
				return err
			}
		case <-poll.C: // safety net against missed edges
			if info, ok := ctrl.GetPlacementGroup(pg.ID); ok {
				if err := settle(info.State); err != errStillWaiting {
					return err
				}
			}
		case <-deadline:
			return fmt.Errorf("core: placement group %v not ready after %v (state %v)", pg.ID, timeout, last)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// errStillWaiting is settle's internal "keep waiting" sentinel.
var errStillWaiting = errors.New("core: still waiting")
