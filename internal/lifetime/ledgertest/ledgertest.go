// Package ledgertest is the task-ledger fixture the scheduler and worker
// unit suites share. The ledger it builds is never started, so every
// transition flushes inline through ModifyTaskStates: a test reads its
// subject's writes straight from the follower table, over the same path
// production runs batched.
package ledgertest

import (
	"repro/internal/gcs"
	"repro/internal/lifetime"
	"repro/internal/types"
)

// New returns node's unstarted ledger over ctrl.
func New(ctrl gcs.API, node types.NodeID) *lifetime.TaskLedger {
	led := lifetime.NewTaskLedger(ctrl)
	led.SetNode(node)
	return led
}

// Admit records spec as a task born on led's node, the way Local.Submit
// admits one: the ledger adopts it and, never started, writes its birth
// inline. For tests that hand a task straight to an executor or to
// Local.Enqueue.
func Admit(led *lifetime.TaskLedger, spec types.TaskSpec) {
	led.Birth(spec)
}
