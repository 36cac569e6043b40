// Package mcts implements Monte Carlo tree search over the core API — the
// paper's Figure 2b workload and the canonical consumer of dynamic task
// creation (R3): the search adaptively launches more simulation tasks
// exploring the most promising subtrees, "depending on how promising they
// are or how fast the computation is", so the task graph cannot be
// specified upfront.
//
// The "game" is a deterministic synthetic planning problem: a hidden
// optimal action sequence is derived from the seed, and a rollout's payoff
// measures how much of its action prefix matches. Simulations burn a
// configurable compute cost, standing in for the paper's physics
// simulator.
package mcts

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/types"
)

// FuncSimulate is the remote simulation function's registry name.
const FuncSimulate = "mcts.simulate"

// Config shapes the search.
type Config struct {
	// Seed derives the hidden optimal sequence and rollout noise.
	Seed uint64
	// NumActions is the branching factor.
	NumActions int
	// MaxDepth is the planning horizon.
	MaxDepth int
	// SimCost is each simulation task's compute (the physics sim).
	SimCost time.Duration
	// Budget is the total number of simulations.
	Budget int
	// Parallelism bounds in-flight simulation tasks.
	Parallelism int
	// ExplorationC is the UCB1 exploration constant.
	ExplorationC float64
}

// Default returns a small but non-trivial search.
func Default(seed uint64) Config {
	return Config{
		Seed:         seed,
		NumActions:   4,
		MaxDepth:     6,
		SimCost:      2 * time.Millisecond,
		Budget:       128,
		Parallelism:  8,
		ExplorationC: 1.4,
	}
}

// simArg is the wire argument of FuncSimulate.
type simArg struct {
	Path    []int
	Seed    uint64
	CostNs  int64
	Actions int
	Depth   int
}

// Result is a completed search.
type Result struct {
	BestAction  int
	BestValue   float64
	Simulations int
	TreeNodes   int
	Elapsed     time.Duration
}

// hiddenSequence is the optimal plan the rollouts reward.
func hiddenSequence(seed uint64, depth, actions int) []int {
	h := fnv.New64a()
	fmt.Fprintf(h, "seq-%d", seed)
	s := h.Sum64()
	out := make([]int, depth)
	for i := range out {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		out[i] = int((s * 0x2545f4914f6cdd1d) >> 33 % uint64(actions))
	}
	return out
}

// Rollout evaluates a partial action path: the deterministic payoff plus
// path-dependent pseudo-noise, after burning the simulation cost. Exported
// so the serial baseline and the remote function share one body.
func Rollout(arg simArg) float64 {
	sim.Compute(time.Duration(arg.CostNs))
	hidden := hiddenSequence(arg.Seed, arg.Depth, arg.Actions)
	score := 0.0
	for i, a := range arg.Path {
		if i >= len(hidden) {
			break
		}
		if a == hidden[i] {
			score += 1.0
		} else {
			break // payoff rewards matching prefixes
		}
	}
	// Deterministic noise from the path, so searches are reproducible.
	h := fnv.New64a()
	for _, a := range arg.Path {
		fmt.Fprintf(h, "%d,", a)
	}
	noise := float64(h.Sum64()%1000)/1000.0*0.1 - 0.05
	return score/float64(arg.Depth) + noise
}

// RegisterFuncs installs the simulation function.
func RegisterFuncs(reg *core.Registry) {
	reg.Register(FuncSimulate, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("mcts.simulate expects 1 arg")
		}
		arg, err := codec.DecodeAs[simArg](args[0])
		if err != nil {
			return nil, err
		}
		v := Rollout(arg)
		enc, err := codec.Encode(v)
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})
}

// node is one tree node.
type node struct {
	path     []int
	visits   int
	value    float64 // total
	virtual  int     // virtual losses: in-flight sims through this node
	children []*node
}

func (n *node) mean() float64 {
	if n.visits == 0 {
		return 0
	}
	return n.value / float64(n.visits)
}

// ucb scores a child for selection (UCB1 with virtual losses so parallel
// selections diversify).
func (n *node) ucb(child *node, c float64) float64 {
	nv := child.visits + child.virtual
	if nv == 0 {
		return math.Inf(1)
	}
	total := n.visits + n.virtual
	if total < 1 {
		total = 1
	}
	return child.value/float64(nv) + c*math.Sqrt(math.Log(float64(total))/float64(nv))
}

// tree is the mutable search state (driver-side only; simulations are the
// distributed part, as in the paper's Fig 2b).
type tree struct {
	cfg  Config
	root *node
	size int
}

func newTree(cfg Config) *tree {
	return &tree{cfg: cfg, root: &node{}, size: 1}
}

// selectLeaf descends by UCB1, expanding the first unexpanded node, and
// applies a virtual loss along the path.
func (t *tree) selectLeaf() *node {
	n := t.root
	n.virtual++
	for len(n.path) < t.cfg.MaxDepth {
		if len(n.children) == 0 {
			n.children = make([]*node, t.cfg.NumActions)
			for a := 0; a < t.cfg.NumActions; a++ {
				child := &node{path: append(append([]int(nil), n.path...), a)}
				n.children[a] = child
			}
			t.size += t.cfg.NumActions
		}
		best, bestScore := n.children[0], math.Inf(-1)
		for _, ch := range n.children {
			if s := n.ucb(ch, t.cfg.ExplorationC); s > bestScore {
				best, bestScore = ch, s
			}
		}
		n = best
		n.virtual++
		if n.visits == 0 {
			break // simulate fresh leaves before expanding them
		}
	}
	return n
}

// backprop records a simulation result along the leaf's path.
func (t *tree) backprop(leaf *node, value float64) {
	// Walk from root following leaf.path, updating every node on the way.
	n := t.root
	n.visits++
	n.value += value
	n.virtual--
	for depth := 0; depth < len(leaf.path); depth++ {
		n = n.children[leaf.path[depth]]
		n.visits++
		n.value += value
		n.virtual--
	}
}

func (t *tree) bestRootAction() (int, float64) {
	best, bestVisits, bestValue := 0, -1, 0.0
	for a, ch := range t.root.children {
		if ch.visits > bestVisits {
			best, bestVisits, bestValue = a, ch.visits, ch.mean()
		}
	}
	return best, bestValue
}

func (t *tree) simArgFor(leaf *node) simArg {
	return simArg{
		Path:    leaf.path,
		Seed:    t.cfg.Seed,
		CostNs:  int64(t.cfg.SimCost),
		Actions: t.cfg.NumActions,
		Depth:   t.cfg.MaxDepth,
	}
}

// SearchSerial is the single-threaded baseline.
func SearchSerial(cfg Config) Result {
	start := time.Now()
	t := newTree(cfg)
	for i := 0; i < cfg.Budget; i++ {
		leaf := t.selectLeaf()
		t.backprop(leaf, Rollout(t.simArgFor(leaf)))
	}
	best, val := t.bestRootAction()
	return Result{BestAction: best, BestValue: val, Simulations: cfg.Budget, TreeNodes: t.size, Elapsed: time.Since(start)}
}

// Search runs the parallel search on the cluster: it keeps up to
// cfg.Parallelism simulation tasks in flight, uses wait to harvest
// whichever complete first, and immediately re-expands from the updated
// tree — the dynamic, adaptive graph construction of R3.
func Search(ctx context.Context, driver *core.Client, cfg Config) (Result, error) {
	start := time.Now()
	t := newTree(cfg)
	type flight struct{ leaf *node }
	// Keyed by the whole ref: Wait needs the producing task to tell a
	// result still on its way from a retired one.
	inflight := make(map[core.ObjectRef]flight)
	launched := 0

	launch := func() error {
		leaf := t.selectLeaf()
		ref, err := driver.Submit1(core.Call{
			Function:  FuncSimulate,
			Args:      []types.Arg{core.Val(t.simArgFor(leaf))},
			Resources: types.CPU(1),
		})
		if err != nil {
			return err
		}
		inflight[ref] = flight{leaf: leaf}
		launched++
		return nil
	}

	done := 0
	for done < cfg.Budget {
		for launched < cfg.Budget && len(inflight) < cfg.Parallelism {
			if err := launch(); err != nil {
				return Result{}, err
			}
		}
		refs := make([]core.ObjectRef, 0, len(inflight))
		for ref := range inflight {
			refs = append(refs, ref)
		}
		ready, _, err := driver.Wait(ctx, refs, 1, -1)
		if err != nil {
			return Result{}, err
		}
		for _, r := range ready {
			fl := inflight[r]
			delete(inflight, r)
			raw, err := driver.Get(ctx, r)
			if err != nil {
				return Result{}, err
			}
			v, err := codec.DecodeAs[float64](raw)
			if err != nil {
				return Result{}, err
			}
			t.backprop(fl.leaf, v)
			done++
		}
	}
	best, val := t.bestRootAction()
	return Result{BestAction: best, BestValue: val, Simulations: done, TreeNodes: t.size, Elapsed: time.Since(start)}, nil
}
