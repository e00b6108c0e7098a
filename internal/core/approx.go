package core

import (
	"sync/atomic"

	"twinsearch/internal/series"
)

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

// Remaining returns the probes left.
func (b *LeafBudget) Remaining() int {
	if v := b.n.Load(); v > 0 {
		return int(v)
	}
	return 0
}

// SearchApprox is the iSAX-style approximate query transplanted onto
// TS-Index: a best-first probe that visits at most leafBudget leaves in
// order of their Eq. 2 distance to the query and verifies only their
// candidates. With leafBudget·MaxCap candidates inspected it costs
// microseconds instead of a full traversal, and returns a subset of the
// exact result set — possibly missing twins that live in unvisited
// leaves (there is no guarantee, not even for the query's own source
// window, though the nearest-leaf ordering makes misses rare for small
// budgets ≥ 2). Use it for interactive "show me something similar now"
// flows, with Search as the exact fallback; the returned statistics
// tell the caller how much was examined. leafBudget ≤ 0 means 1.
func (ix *Index) SearchApprox(q []float64, eps float64, leafBudget int) ([]series.Match, Stats) {
	if leafBudget <= 0 {
		leafBudget = 1
	}
	return ix.SearchApproxShared(q, eps, NewLeafBudget(leafBudget))
}

// SearchApproxShared is SearchApprox drawing leaves from a budget the
// caller may share across several traversals (the sharded fan-out
// passes one LeafBudget to every shard). With a private budget it is
// exactly SearchApprox. Which traversal spends a shared unit depends
// on scheduling, so the sharded result set may vary between runs —
// inherent to an approximate, globally budgeted probe — but every
// returned match is a true twin and total leaves probed stay within
// the allowance.
func (ix *Index) SearchApproxShared(q []float64, eps float64, budget *LeafBudget) ([]series.Match, Stats) {
	if len(q) != ix.cfg.L {
		panic("core: query length mismatch")
	}
	var st Stats
	if ix.root == nil {
		return nil, st
	}

	ver := series.NewVerifier(ix.ext, q, eps)
	var out []series.Match
	pq := make([]nodeItem, 0, frozenStackCap)
	pq = append(pq, nodeItem{n: ix.root, lb: ix.root.bounds.DistSequence(q)})
	for len(pq) > 0 && !budget.Exhausted() {
		var item nodeItem
		pq, item = heapPop(pq)
		st.NodesVisited++
		if item.lb > eps {
			// Everything remaining is farther than ε; Lemma 1 says no
			// unvisited leaf can contribute.
			st.NodesPruned++
			break
		}
		if !item.n.leaf {
			for _, c := range item.n.children {
				pq = heapPush(pq, nodeItem{n: c, lb: c.bounds.DistSequence(q)})
			}
			continue
		}
		if !budget.TryAcquire() {
			break // another traversal spent the last probe
		}
		st.LeavesReached++
		for _, p := range item.n.positions {
			st.Candidates++
			if ver.Verify(int(p)) {
				out = append(out, series.Match{Start: int(p), Dist: -1})
			} else {
				st.Abandons++
			}
		}
	}
	series.SortMatches(out)
	st.Results = len(out)
	return out, st
}
