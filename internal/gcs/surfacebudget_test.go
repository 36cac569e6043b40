package gcs

import (
	"reflect"
	"testing"

	"repro/internal/transport"
)

// TestAPISurfaceBudget pins the size of the control-plane surface, exactly:
// a method removed lowers the pin in the same change, so regrowth shows up
// here. Every API method is a Store function, a Sharded stub over its wire
// row and a step of the conformance script, so growing it is a decision to
// make here, in the open, not a side effect. The wire count is what a
// one-shard control plane serves: the rows and the subscription stream,
// plus the shard-map pair RegisterSingleShard adds.
func TestAPISurfaceBudget(t *testing.T) {
	const apiMethods, wireNames = 34, 41
	methods := reflect.TypeOf((*API)(nil)).Elem().NumMethod()
	if methods != apiMethods {
		t.Errorf("gcs.API has %d methods, pinned at %d", methods, apiMethods)
	}
	_, _, log := oneShard(t, transport.NewInproc(0), "gcs")
	log.mu.Lock()
	served := len(log.served)
	log.mu.Unlock()
	if served != wireNames {
		t.Errorf("a one-shard control plane serves %d method and stream names, pinned at %d", served, wireNames)
	}
}
