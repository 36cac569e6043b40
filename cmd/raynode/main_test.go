package main

import (
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/types"
)

// TestJoinControlPlane: over real TCP, a joiner attaches to an in-memory
// head and to a sharded head through the same one client, and a task
// record written by the joiner is read back through the head's own handle.
// The sharded head derives its shards' ports from the map's, so its case
// takes fixed ports, below the ephemeral range outgoing connections draw
// from.
func TestJoinControlPlane(t *testing.T) {
	for _, tc := range []struct {
		name      string
		gcsAddr   string
		gcsShards int
	}{
		{"in-memory head", "127.0.0.1:0", 0},
		{"-gcs-shards 2 head", "127.0.0.1:29591", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head, addr, super, stop, err := serveControlPlane(tc.gcsAddr, "127.0.0.1:0", tc.gcsShards, t.TempDir(), 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			if (super != nil) != (tc.gcsShards > 0) {
				t.Fatalf("supervisor = %v with %d shards", super, tc.gcsShards)
			}
			joiner, err := joinControlPlane(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer joiner.Close()
			if got, want := joiner.Map().NumShards(), max(tc.gcsShards, 1); got != want {
				t.Fatalf("joiner sees %d shards, want %d", got, want)
			}

			var id types.TaskID
			id[0] = 1
			birth := types.TaskStateDelta{ID: id, Spec: &types.TaskSpec{ID: id, Function: "f"}}
			if failed := joiner.ModifyTaskStates(types.NilNodeID, []types.TaskStateDelta{birth}, 1); len(failed) != 0 {
				t.Fatalf("a birth through the joiner failed: %v", failed)
			}
			if st, ok := head.GetTask(id); !ok || st.Spec.Function != "f" {
				t.Fatalf("head does not see the joiner's task: %+v %v", st, ok)
			}
			if !joiner.Ping() {
				t.Fatal("joiner cannot reach every shard")
			}
		})
	}
}

// TestJoinNotAControlPlane: joining an address where nothing listens, or
// where something other than a control plane does, is one error that names
// the address — never a silent fallback.
func TestJoinNotAControlPlane(t *testing.T) {
	listen := func() transport.Listener {
		l, err := transport.TCP{}.Listen("127.0.0.1:0", transport.NewServer())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	node := listen()
	defer node.Close()
	gone := listen()
	gone.Close()
	for _, addr := range []string{gone.Addr(), node.Addr()} {
		sh, err := joinControlPlane(addr)
		if err == nil {
			sh.Close()
			t.Fatalf("join %s succeeded", addr)
		}
		if !strings.Contains(err.Error(), "no control plane at "+addr) {
			t.Fatalf("join %s: error does not name the address: %v", addr, err)
		}
	}
}
