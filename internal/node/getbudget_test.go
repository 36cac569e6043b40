package node

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gcs"
	"repro/internal/transport"
)

// TestOwnerGetWatcherBudget pins the owner-side Get's yield
// (Node.ResolveObject): a driver's Get on the task it just submitted finds
// the task SCHEDULED, its executor readied next on the driver's processor,
// and yields to it instead of parking on an end watcher. On one processor
// the executor then runs the task before the driver resumes, so the Get
// finds the return stored. The budget is not 0: the runtime takes the
// driver back from the global run queue ahead of the executor on one
// schedule in 61, and a background loop may take the processor first.
// Without the yield every Get parks (~1,000).
func TestOwnerGetWatcherBudget(t *testing.T) {
	const rounds, budget = 1000, 50
	reg := core.NewRegistry()
	reg.Register("noop", func(*core.TaskContext, [][]byte) ([][]byte, error) { return [][]byte{nil}, nil })
	n := newTestNode(t, gcs.NewStore(2), transport.NewInproc(0), "n1", reg)
	d := core.NewClient(n)
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	watched := n.Metrics().Counter("lifetime.gets.watched")
	before := watched.Value()
	for i := range rounds {
		refs, err := d.SubmitOpts("noop", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(ctx, refs[0]); err != nil {
			t.Fatalf("Get %d = %v", i, err)
		}
		d.Release(refs[0])
	}
	got := watched.Value() - before
	t.Logf("%d of %d serial Gets parked on an end watcher", got, rounds)
	if got > budget {
		t.Fatalf("%d of %d serial Gets parked on an end watcher, budget %d", got, rounds, budget)
	}
}
