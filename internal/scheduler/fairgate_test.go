package scheduler

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gcs"
	"repro/internal/types"
)

// TestFairGateSeesJobsAheadOfTheBurst: two jobs are created, their events
// already delivered, and then one job floods. The flood's first burst must
// be gated — released only while a node has headroom — not placed whole
// into node FIFOs because the burst was handled before the event that makes
// the cluster multi-tenant. (That ordering let a noisy neighbor's first
// ~80 tasks run ahead of a victim created before them.)
func TestFairGateSeesJobsAheadOfTheBurst(t *testing.T) {
	ctrl := gcs.NewStore(2)
	ctrl.RegisterNode(types.NodeInfo{ID: tNode(80), Addr: "x", Total: types.CPU(2)})
	assigned := 0
	g := NewGlobal(GlobalConfig{Ctrl: ctrl, Assign: func(types.NodeID, string, types.TaskSpec) error {
		assigned++
		return nil
	}})
	jobSub := ctrl.Subscribe(gcs.TopicJobs, types.NilJobID)
	defer jobSub.Close()
	var noisy, victim types.JobID
	noisy[0], victim[0] = 1, 2
	ctrl.CreateJob(types.JobSpec{ID: noisy, Name: "noisy"})
	ctrl.CreateJob(types.JobSpec{ID: victim, Name: "victim"})
	for deadline := time.Now().Add(5 * time.Second); len(jobSub.C()) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("job events not delivered")
		}
		time.Sleep(time.Millisecond)
	}

	const burst = 20
	spill := make(chan []byte, burst)
	for i := range burst {
		spec := tSpec(uint64(800+i), nil)
		spec.Job = noisy
		spill <- codec.MustEncode(spec)
	}
	g.spilled(<-spill, spill, jobSub.C())
	if assigned != fairDispatchDepth {
		t.Fatalf("a burst of %d with two jobs created placed %d tasks on an idle one-node cluster, want the gate's %d",
			burst, assigned, fairDispatchDepth)
	}
}
