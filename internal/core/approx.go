package core

import "sync/atomic"

// LeafBudget is a shared, atomically drawn allowance of leaf probes.
// The sharded approximate search hands one budget to every shard's
// traversal instead of pre-splitting the allowance: whichever shards
// hold the nearest leaves draw more of it, so a skewed partition no
// longer wastes budget on shards with nothing close to the query. The
// total number of leaves probed across all holders never exceeds the
// allowance.
type LeafBudget struct {
	n atomic.Int64
}

// NewLeafBudget returns a budget of n leaf probes (n ≤ 0 means none).
func NewLeafBudget(n int) *LeafBudget {
	b := &LeafBudget{}
	b.n.Store(int64(n))
	return b
}

// TryAcquire draws one leaf probe; it reports false once the budget is
// spent.
func (b *LeafBudget) TryAcquire() bool {
	for {
		v := b.n.Load()
		if v <= 0 {
			return false
		}
		if b.n.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// Exhausted reports whether no probes remain.
func (b *LeafBudget) Exhausted() bool { return b.n.Load() <= 0 }
