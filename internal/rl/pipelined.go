package rl

import (
	"context"
	"time"

	"repro/internal/codec"
	"repro/internal/core"

	"repro/internal/sim"
)

// RunPipelined is the Section 4.2 refinement: "using the wait primitive, we
// can adapt the example to process the simulation tasks in the order that
// they finish so as to better pipeline the simulation execution with the
// action computations on the GPU". Instead of a global per-step barrier,
// the driver waits for any `chunk` simulations to complete, immediately
// dispatches a GPU action task for just that chunk, and advances those
// simulators — so a straggler simulation stalls only itself (R1, R4).
//
// With uniform step costs this matches RunCore; with a heavy-tailed
// straggler distribution (Config.StragglerEvery) it wins, which is
// experiment E6.
func RunPipelined(ctx context.Context, cfg Config, driver *core.Client, chunk int) (Report, error) {
	if chunk <= 0 {
		chunk = cfg.NumSims / 4
		if chunk < 1 {
			chunk = 1
		}
	}
	start := time.Now()
	policy := sim.NewPolicy(cfg.ObsDim, cfg.NumActions, cfg.EvalCost)
	carries := initialCarries(cfg)
	report := Report{Impl: "pipelined"}

	type readyCarry struct {
		sim int
		ref core.ObjectRef
	}

	for iter := 0; iter < cfg.Iters; iter++ {
		stepsDone := make([]int, cfg.NumSims)
		// Keyed by the whole ref: Wait needs the producing task to tell a
		// result still on its way from a retired one.
		inflight := make(map[core.ObjectRef]int)
		finalRefs := make([]core.ObjectRef, cfg.NumSims)

		// Launch step 1 of every simulator (no actions yet).
		for i := 0; i < cfg.NumSims; i++ {
			ref, err := submitStep(driver, core.Val(carries[i]), emptyActions(), -1)
			if err != nil {
				return report, err
			}
			inflight[ref] = i
			report.TotalSteps++
		}

		var pool []readyCarry
		for len(inflight) > 0 {
			refs := make([]core.ObjectRef, 0, len(inflight))
			for ref := range inflight {
				refs = append(refs, ref)
			}
			k := chunk
			if k > len(refs) {
				k = len(refs)
			}
			ready, _, err := driver.Wait(ctx, refs, k, -1)
			if err != nil {
				return report, err
			}
			for _, r := range ready {
				simIdx := inflight[r]
				delete(inflight, r)
				stepsDone[simIdx]++
				if stepsDone[simIdx] >= cfg.StepsPerIter {
					finalRefs[simIdx] = r
				} else {
					pool = append(pool, readyCarry{sim: simIdx, ref: r})
				}
			}
			if len(pool) == 0 {
				continue
			}
			// Pipeline: GPU action task for exactly this chunk, then the
			// chunk's next simulation steps — while stragglers keep running.
			carryRefs := make([]core.ObjectRef, len(pool))
			for i, e := range pool {
				carryRefs[i] = e.ref
			}
			actRef, err := submitAct(driver, policy, carryRefs)
			if err != nil {
				return report, err
			}
			for pos, e := range pool {
				ref, err := submitStep(driver, core.RefOf(e.ref), core.RefOf(actRef), pos)
				if err != nil {
					return report, err
				}
				inflight[ref] = e.sim
				report.TotalSteps++
			}
			pool = nil
		}

		for i, ref := range finalRefs {
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
