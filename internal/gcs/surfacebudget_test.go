package gcs

import (
	"reflect"
	"testing"

	"repro/internal/transport"
)

// TestAPISurfaceBudget pins the size of the control-plane surface. Every
// API method is a Store function, a Sharded stub over its wire row and a
// step of the conformance script, so growing it is a decision to make here,
// in the open, not a side effect. The wire budget counts what a one-shard
// control plane serves: the rows and the subscription stream, plus the
// shard-map pair RegisterSingleShard adds.
func TestAPISurfaceBudget(t *testing.T) {
	const apiBudget, wireBudget = 40, 46
	methods := reflect.TypeOf((*API)(nil)).Elem().NumMethod()
	if methods > apiBudget {
		t.Errorf("gcs.API has %d methods, budget %d", methods, apiBudget)
	}
	_, _, log := oneShard(t, transport.NewInproc(0), "gcs")
	log.mu.Lock()
	served := len(log.served)
	log.mu.Unlock()
	if served > wireBudget {
		t.Errorf("a one-shard control plane serves %d method and stream names, budget %d", served, wireBudget)
	}
	t.Logf("gcs.API: %d methods; one-shard wire: %d names", methods, served)
}
