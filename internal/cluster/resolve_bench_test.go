package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// BenchmarkDepResolve measures experiment E19: end-to-end latency of a task
// whose dependency set lives on a remote node. The cluster runs a sharded
// control plane over a network with hop latency, so every record read,
// subscription attach and borrow flush costs real round trips; the
// dependency table watches the objects and pulls them while the enqueue's
// borrow flush is in flight.
func BenchmarkDepResolve(b *testing.B) {
	const deps = 8
	cases := []struct {
		name    string
		depSize int
		hop     time.Duration
	}{
		// Latency-dominated: small objects, expensive control round trips.
		{"small-64KiB", 64 << 10, time.Millisecond},
		// Bandwidth-dominated: the transfer itself is the cost.
		{"large-512KiB", 512 << 10, 200 * time.Microsecond},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			reg := core.NewRegistry()
			reg.Register("bench.consume", func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
				n := 0
				for _, a := range args {
					n += len(a)
				}
				return [][]byte{[]byte(fmt.Sprint(n))}, nil
			})
			c, err := New(Config{
				Nodes:         2,
				NodeResources: types.CPU(4),
				GCSShards:     2,
				HopLatency:    tc.hop,
				Registry:      reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Shutdown()
			producer := c.Driver()    // objects land on node 0
			consumer := c.DriverOn(1) // tasks park on node 1, deps remote
			ctx := context.Background()
			payload := make([]byte, tc.depSize)

			// The interesting window is park→scheduled (dependency
			// resolution: readiness discovery + chunked pulls), which the
			// task table records; wall-clock per iteration is dominated by
			// the Puts that stage each fresh dependency set.
			var parkNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				args := make([]types.Arg, deps)
				for d := 0; d < deps; d++ {
					ref, err := producer.Put(payload)
					if err != nil {
						b.Fatal(err)
					}
					args[d] = core.RefOf(ref)
				}
				refs, err := consumer.SubmitOpts("bench.consume", args)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := consumer.Get(ctx, refs[0]); err != nil {
					b.Fatal(err)
				}
				if info, ok := c.API.GetObject(refs[0].ID); ok {
					if st, ok := c.API.GetTask(info.Producer); ok && st.ScheduledNs > st.SubmittedNs {
						parkNs += st.ScheduledNs - st.SubmittedNs
					}
				}
			}
			b.ReportMetric(float64(parkNs)/float64(b.N), "park-ns/op")
		})
	}
}
