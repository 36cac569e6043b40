package mcts

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec/codectest"
	"repro/internal/core"
	"repro/internal/types"
)

func fastConfig(seed uint64) Config {
	cfg := Default(seed)
	cfg.SimCost = 100 * time.Microsecond
	cfg.Budget = 64
	cfg.Parallelism = 4
	return cfg
}

func TestHiddenSequenceDeterministic(t *testing.T) {
	a := hiddenSequence(7, 6, 4)
	b := hiddenSequence(7, 6, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hidden sequence not deterministic")
		}
		if a[i] < 0 || a[i] >= 4 {
			t.Fatalf("action %d out of range", a[i])
		}
	}
	c := hiddenSequence(8, 6, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical sequences")
	}
}

func TestRolloutRewardsMatchingPrefix(t *testing.T) {
	cfg := fastConfig(3)
	hidden := hiddenSequence(cfg.Seed, cfg.MaxDepth, cfg.NumActions)
	good := simArg{Path: hidden, Seed: cfg.Seed, Actions: cfg.NumActions, Depth: cfg.MaxDepth}
	bad := simArg{Path: []int{(hidden[0] + 1) % cfg.NumActions}, Seed: cfg.Seed, Actions: cfg.NumActions, Depth: cfg.MaxDepth}
	if Rollout(good) <= Rollout(bad) {
		t.Fatal("full match did not beat mismatch")
	}
}

func TestSearchSerialFindsHiddenFirstAction(t *testing.T) {
	cfg := fastConfig(5)
	cfg.Budget = 256
	res := SearchSerial(cfg)
	hidden := hiddenSequence(cfg.Seed, cfg.MaxDepth, cfg.NumActions)
	if res.BestAction != hidden[0] {
		t.Fatalf("best action %d, hidden %d (value %v)", res.BestAction, hidden[0], res.BestValue)
	}
	if res.Simulations != cfg.Budget {
		t.Fatalf("simulations = %d", res.Simulations)
	}
	if res.TreeNodes <= 1 {
		t.Fatal("tree never grew")
	}
}

func TestParallelSearchFindsHiddenFirstAction(t *testing.T) {
	cfg := fastConfig(5)
	cfg.Budget = 256
	reg := core.NewRegistry()
	RegisterFuncs(reg)
	c, err := cluster.New(cluster.Config{Nodes: 1, NodeResources: types.CPU(8), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Search(ctx, c.Driver(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hidden := hiddenSequence(cfg.Seed, cfg.MaxDepth, cfg.NumActions)
	if res.BestAction != hidden[0] {
		t.Fatalf("parallel best action %d, hidden %d", res.BestAction, hidden[0])
	}
	if res.Simulations < cfg.Budget {
		t.Fatalf("only %d simulations ran", res.Simulations)
	}
}

func TestVirtualLossesClearAfterSearch(t *testing.T) {
	cfg := fastConfig(9)
	tr := newTree(cfg)
	for i := 0; i < 32; i++ {
		leaf := tr.selectLeaf()
		tr.backprop(leaf, Rollout(tr.simArgFor(leaf)))
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.virtual != 0 {
			t.Fatalf("node %v left with virtual loss %d", n.path, n.virtual)
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(tr.root)
}

func TestUCBPrefersUnvisited(t *testing.T) {
	parent := &node{visits: 10}
	visited := &node{visits: 5, value: 5}
	fresh := &node{}
	if parent.ucb(fresh, 1.4) <= parent.ucb(visited, 1.4) {
		t.Fatal("unvisited child not prioritized")
	}
}

// TestWireTypesArePlainData: a simulation's argument and its value cross in
// codec's value form.
func TestWireTypesArePlainData(t *testing.T) {
	codectest.PlainData(t, simArg{Path: []int{1, 2}, Seed: 3, CostNs: 4, Actions: 5, Depth: 6}, simArg{}, 0.5)
}
