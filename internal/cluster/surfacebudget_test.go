package cluster

import (
	"reflect"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/node"
	"repro/internal/scheduler"
)

// TestConfigSurfaceBudget pins how many values a deployment can set across
// the config structs of the runtime's components. Every field doubles the
// configurations the tests must cover, so a setting that one value serves
// is a constant, and adding a field is a decision to make here, in the
// open, not a side effect.
func TestConfigSurfaceBudget(t *testing.T) {
	const budget = 76
	total := 0
	for _, cfg := range []any{
		Config{}, node.Config{}, scheduler.LocalConfig{}, scheduler.GlobalConfig{},
		gcs.ShardedConfig{}, gcs.ShardConfig{}, gcs.SupervisorConfig{},
		lifetime.PullConfig{}, autoscale.Config{},
	} {
		ty := reflect.TypeOf(cfg)
		n := 0
		for i := range ty.NumField() {
			if ty.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("%s: %d", ty, n)
		total += n
	}
	if total > budget {
		t.Errorf("the config structs have %d settable values, budget %d", total, budget)
	}
	t.Logf("settable config values: %d", total)
}
