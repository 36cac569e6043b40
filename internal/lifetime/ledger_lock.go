//go:build !ledgerdebug

package lifetime

import "sync"

// ledgerMutex is a ledger's lock (ledger.mu). Building with -tags
// ledgerdebug swaps in one that counts its acquisitions
// (ledger_lock_debug.go), which the lock budgets read.
type ledgerMutex = sync.Mutex
