//go:build ledgerdebug

package lifetime

import (
	"sync"
	"sync/atomic"
)

// ledgerMutex (ledgerdebug builds) is a ledger's lock that counts its
// acquisitions, so that a test can pin how often a path takes it.
type ledgerMutex struct {
	sync.Mutex
	locks atomic.Uint64
}

func (m *ledgerMutex) Lock() {
	m.locks.Add(1)
	m.Mutex.Lock()
}

// Locks counts the acquisitions of the ledger's lock so far.
func (l *ledger[B, K]) Locks() uint64 { return l.mu.locks.Load() }
