package types

import "slices"

// OpRing remembers the idempotency tokens of the most recent non-idempotent
// mutations applied to a control-plane record (refcount deltas, status CAS
// claims, ledger batches). A client whose response was lost — typically the
// owning GCS shard died between committing the mutation and answering —
// resends the same token, and the (possibly restarted) shard recognizes it
// instead of applying the mutation twice: a delta is not re-added, and a
// CAS is reported won instead of losing to its own commit. The ring is
// stored with the record, so dedup survives failover. Token 0 means "no
// dedup": it is never seen and never recorded.
type OpRing []uint64

// Seen reports whether op was already applied to this record.
func (r OpRing) Seen(op uint64) bool {
	return op != 0 && slices.Contains(r, op)
}

// Record appends op, keeping only the newest limit tokens.
func (r *OpRing) Record(op uint64, limit int) {
	if op == 0 {
		return
	}
	*r = append(*r, op)
	if len(*r) > limit {
		*r = (*r)[len(*r)-limit:]
	}
}
