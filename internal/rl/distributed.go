package rl

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/types"
)

// Remote function names.
const (
	FuncStep = "rl.step"
	FuncAct  = "rl.act"
)

// policyWire is the serialized policy passed to FuncAct.
type policyWire struct {
	W          []float64
	ObsDim     int
	NumActions int
	EvalCostNs int64
}

func wirePolicy(p *sim.Policy) policyWire {
	return policyWire{W: append([]float64(nil), p.W...), ObsDim: p.ObsDim, NumActions: p.NumActions, EvalCostNs: int64(p.EvalCost)}
}

func (pw policyWire) policy() *sim.Policy {
	return &sim.Policy{W: pw.W, ObsDim: pw.ObsDim, NumActions: pw.NumActions, EvalCost: time.Duration(pw.EvalCostNs)}
}

// RegisterFuncs installs the RL remote functions into a registry. Call once
// per registry before building the cluster.
func RegisterFuncs(reg *core.Registry) {
	// FuncStep: args = [enc(carry), enc([]int actions, may be nil),
	// enc(int chunk index)] -> enc(carry), enc being codec.Encode: all of
	// these are plain data and cross in its value form. The carry and actions arguments
	// are usually futures (outputs of the previous step and of the action
	// task), which is what builds the dataflow of Fig. 1b. A CPU task of
	// ~StepCost — the paper's ~7ms simulation.
	reg.Register(FuncStep, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("rl.step expects 3 args, got %d", len(args))
		}
		c, err := codec.DecodeAs[carry](args[0])
		if err != nil {
			return nil, fmt.Errorf("rl.step carry: %w", err)
		}
		var actions []int
		if err := codec.Decode(args[1], &actions); err != nil {
			return nil, fmt.Errorf("rl.step actions: %w", err)
		}
		idx, err := codec.DecodeAs[int](args[2])
		if err != nil {
			return nil, fmt.Errorf("rl.step index: %w", err)
		}
		action := 0
		if idx >= 0 && idx < len(actions) {
			action = actions[idx]
		}
		out := stepSim(c, action)
		enc, err := codec.Encode(out)
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})

	// FuncAct: args = [enc(policyWire), enc(carry)...] -> enc([]int): one
	// action per carry, in argument order. A GPU kernel (paper: actions
	// computed "in parallel on GPUs").
	reg.Register(FuncAct, func(tc *core.TaskContext, args [][]byte) ([][]byte, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("rl.act expects policy + >=1 carry")
		}
		pw, err := codec.DecodeAs[policyWire](args[0])
		if err != nil {
			return nil, err
		}
		policy := pw.policy()
		obs := make([]sim.Obs, 0, len(args)-1)
		for _, raw := range args[1:] {
			c, err := codec.DecodeAs[carry](raw)
			if err != nil {
				return nil, err
			}
			obs = append(obs, c.Obs)
		}
		actions := policy.Act(obs)
		enc, err := codec.Encode(actions)
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	})
}

// actResources is the GPU demand of FuncAct tasks.
func actResources() types.Resources { return types.Resources{types.ResGPU: 1} }

// emptyActions is the inline "no actions yet" batch for a step's first use.
func emptyActions() types.Arg { return core.Val([]int(nil)) }

// submitStep submits one simulation-step task.
func submitStep(s core.Submitter, carryArg, actionsArg types.Arg, chunkIdx int) (core.ObjectRef, error) {
	return submit1(s, core.Call{
		Function:  FuncStep,
		Args:      []types.Arg{carryArg, actionsArg, core.Val(chunkIdx)},
		Resources: types.CPU(1),
	})
}

// submitAct submits one GPU action-computation task over carry futures.
func submitAct(s core.Submitter, policy *sim.Policy, carryRefs []core.ObjectRef) (core.ObjectRef, error) {
	args := make([]types.Arg, 0, len(carryRefs)+1)
	args = append(args, core.Val(wirePolicy(policy)))
	for _, r := range carryRefs {
		args = append(args, core.RefOf(r))
	}
	return submit1(s, core.Call{Function: FuncAct, Args: args, Resources: actResources()})
}

func submit1(s core.Submitter, call core.Call) (core.ObjectRef, error) {
	call.NumReturns = 1
	refs, err := s.Submit(call)
	if err != nil {
		return core.ObjectRef{}, err
	}
	return refs[0], nil
}

// RunCore executes the workload on this system with the same BSP-shaped
// dataflow as RunBSP — per step, NumSims simulation tasks then one GPU
// action task — expressed as futures. The speedup over RunBSP comes purely
// from system overheads ("despite the BSP nature of the example"), which is
// the paper's Section 4.2 point.
func RunCore(ctx context.Context, cfg Config, driver *core.Client) (Report, error) {
	start := time.Now()
	policy := sim.NewPolicy(cfg.ObsDim, cfg.NumActions, cfg.EvalCost)
	carries := initialCarries(cfg)
	report := Report{Impl: "core"}

	// The driver keeps a small window of steps in flight rather than
	// submitting the whole iteration graph at once: graph construction is
	// still asynchronous (Section 3.1 item 1), but the number of parked
	// dependency watchers stays bounded — the same reason real drivers
	// throttle with wait.
	const submitWindow = 2
	for iter := 0; iter < cfg.Iters; iter++ {
		carryRefs := make([]core.ObjectRef, cfg.NumSims)
		actionsArg := emptyActions()
		var actRefs []core.ObjectRef
		for step := 0; step < cfg.StepsPerIter; step++ {
			for i := 0; i < cfg.NumSims; i++ {
				carryArg := core.Val(carries[i])
				if step > 0 {
					carryArg = core.RefOf(carryRefs[i])
				}
				ref, err := submitStep(driver, carryArg, actionsArg, i)
				if err != nil {
					return report, err
				}
				carryRefs[i] = ref
				report.TotalSteps++
			}
			actRef, err := submitAct(driver, policy, carryRefs)
			if err != nil {
				return report, err
			}
			actionsArg = core.RefOf(actRef)
			actRefs = append(actRefs, actRef)
			if lag := step - submitWindow; lag >= 0 {
				if _, _, err := driver.Wait(ctx, []core.ObjectRef{actRefs[lag]}, 1, -1); err != nil {
					return report, err
				}
			}
		}
		// Iteration barrier: collect final carries, update the policy.
		for i, ref := range carryRefs {
			raw, err := driver.Get(ctx, ref)
			if err != nil {
				return report, err
			}
			c, err := codec.DecodeAs[carry](raw)
			if err != nil {
				return report, err
			}
			carries[i] = c
		}
		report.MeanReturnPerIter = append(report.MeanReturnPerIter, iterUpdate(policy, carries, cfg.LR))
	}
	report.Elapsed = time.Since(start)
	return report, nil
}
