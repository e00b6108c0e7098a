package core

// Batch-frontier traversal: B queries descend the frozen arena together,
// so each visited node's bounds are loaded once and amortized across the
// whole batch (the query-batch counterpart of the arena's node-batch
// layout — MESSI batches work units over one query, this batches queries
// over one work unit). A traversal frame is (node, active query set):
// a query is active at a node exactly when it survived the Lemma 1 test
// at every ancestor, which is precisely the set of nodes its own
// traversal would visit — so per-query Stats come out identical to B
// separate traversals, and the match sets are identical too (the order
// within a unit differs; every caller sorts or merges by start).
//
// The top-k batch descends depth-first rather than best-first. That is
// safe for exactness: pruning is on strict inequality (lb > t) against
// thresholds that never undershoot the final k-th distance, so a node
// containing a true top-k member can never be pruned under ANY
// exploration order — the final (dist, start)-ordered result set is the
// same k matches best-first would return. Only the amount of pruning
// (work), not the answer, depends on visit order.

import (
	"fmt"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// batchFrame is one step of a batch descent: an arena node and the
// segment [lo, hi) of the shared active-query arena that survived every
// ancestor. Segments are append-only and shared by sibling frames.
type batchFrame struct {
	node   int32
	lo, hi int
}

// SearchStatsBatch answers B range queries (one shared threshold) over
// the whole arena — per-query matches sorted by start with Results set,
// exactly what B calls to SearchStats would return.
func (f *Frozen) SearchStatsBatch(qs [][]float64, eps float64) ([][]series.Match, []Stats) {
	for _, q := range qs {
		if len(q) != f.cfg.L {
			panic(fmt.Sprintf("core: query length %d, index built for %d", len(q), f.cfg.L))
		}
	}
	out, st := f.SearchStatsBatchFrom(f.Root(), qs, eps)
	for i := range out {
		series.SortMatches(out[i])
		st[i].Results = len(out[i])
	}
	return out, st
}

// SearchStatsBatchFrom is the batch range-search work unit: every query
// in qs against one subtree at threshold eps. out[i] and st[i] cover
// query i alone — the same visit set, counters, and match set as
// SearchStatsFrom(sub, qs[i], eps), with Results left zero and matches
// in batch traversal order (callers sort or merge by start).
func (f *Frozen) SearchStatsBatchFrom(sub FrozenSubtree, qs [][]float64, eps float64) ([][]series.Match, []Stats) {
	nq := len(qs)
	out := make([][]series.Match, nq)
	st := make([]Stats, nq)
	if !sub.ok || nq == 0 {
		return out, st
	}

	vers := make([]*series.Verifier, nq)
	for i, q := range qs {
		vers[i] = series.NewVerifier(f.ext, q, eps)
	}

	// Scratch for the batch kernel calls, reused at every node.
	sq := make([][]float64, nq)
	limits := make([]float64, nq)
	dists := make([]float64, nq)
	oks := make([]bool, nq)
	for i := range limits {
		limits[i] = eps
	}

	// active is the shared segment arena; the root frame holds all B.
	active := make([]int32, nq, 4*nq)
	for i := range active {
		active[i] = int32(i)
	}
	stack := []batchFrame{{node: sub.id, lo: 0, hi: nq}}

	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		act := active[fr.lo:fr.hi]

		// One pass of the node's bounds serves the whole active set.
		for i, qi := range act {
			sq[i] = qs[qi]
		}
		b := len(act)
		kernel.DistAbandonFlatBatch32(f.boundsUpper(fr.node), f.boundsLower(fr.node),
			sq[:b], limits[:b], dists[:b], oks[:b])

		lo := len(active)
		for i, qi := range act {
			st[qi].NodesVisited++
			if !oks[i] {
				st[qi].NodesPruned++
				continue
			}
			active = append(active, qi)
		}
		hi := len(active)
		if lo == hi {
			continue // every query pruned this subtree
		}

		first, c := f.first[fr.node], f.count[fr.node]
		if !f.isLeaf(fr.node) {
			for j := int32(0); j < c; j++ {
				stack = append(stack, batchFrame{node: first + j, lo: lo, hi: hi})
			}
			continue
		}
		for _, qi := range active[lo:hi] {
			st[qi].LeavesReached++
			for _, p := range f.positions[first : first+c] {
				st[qi].Candidates++
				if vers[qi].Verify(int(p)) {
					out[qi] = append(out[qi], series.Match{Start: int(p), Dist: -1})
				} else {
					st[qi].Abandons++
				}
			}
		}
	}
	return out, st
}

// SearchTopKBatch answers B top-k queries over the whole arena, each
// result in ascending (dist, start) order — the same k matches B calls
// to SearchTopK would return.
func (f *Frozen) SearchTopKBatch(qs [][]float64, k int) [][]series.Match {
	return f.SearchTopKBatchFrom(f.Root(), qs, k, nil)
}

// SearchTopKBatchFrom is the batch top-k work unit: every query in qs
// against one subtree, each maintaining its own result heap and pruning
// threshold. shared, when non-nil, carries one cross-unit bound per
// query (len(shared) == len(qs)); nil entries and a nil slice mean
// unshared. Per-query results match SearchTopKSharedFrom's contract:
// exactly the subtree's k best under the (dist, start) total order when
// unshared, and under shared bounds possibly missing matches that
// cannot survive the global merge — the merged top-k is unaffected.
// The batch wins twice: each node's bounds stream once for the whole
// active set, and each candidate window is extracted once for every
// query still alive at its leaf.
func (f *Frozen) SearchTopKBatchFrom(sub FrozenSubtree, qs [][]float64, k int, shared []*SharedBound) [][]series.Match {
	nq := len(qs)
	for _, q := range qs {
		if len(q) != f.cfg.L {
			panic("core: query length mismatch")
		}
	}
	if shared != nil && len(shared) != nq {
		panic("core: SearchTopKBatchFrom: len(shared) != len(qs)")
	}
	out := make([][]series.Match, nq)
	if k <= 0 || !sub.ok || nq == 0 {
		return out
	}
	// One accumulator per query: the same scoring and admission step
	// as the single-query units (topk.go).
	tk := make([]topK, nq)
	for i := range tk {
		var sb *SharedBound
		if shared != nil {
			sb = shared[i]
		}
		tk[i] = newTopK(k, sb)
	}
	buf := make([]float64, f.cfg.L)

	sq := make([][]float64, nq)
	limits := make([]float64, nq)
	dists := make([]float64, nq)
	oks := make([]bool, nq)

	active := make([]int32, nq, 4*nq)
	for i := range active {
		active[i] = int32(i)
	}
	stack := []batchFrame{{node: sub.id, lo: 0, hi: nq}}

	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		act := active[fr.lo:fr.hi]

		// Each query's Eq. 2 pass abandons against its own current
		// limit (+Inf, which never abandons, while it has none).
		for i, qi := range act {
			sq[i] = qs[qi]
			limits[i] = tk[qi].limit()
		}
		b := len(act)
		kernel.DistAbandonFlatBatch32(f.boundsUpper(fr.node), f.boundsLower(fr.node),
			sq[:b], limits[:b], dists[:b], oks[:b])

		lo := len(active)
		for i, qi := range act {
			if oks[i] {
				active = append(active, qi)
			}
		}
		hi := len(active)
		if lo == hi {
			continue
		}

		first, c := f.first[fr.node], f.count[fr.node]
		if !f.isLeaf(fr.node) {
			for j := int32(0); j < c; j++ {
				stack = append(stack, batchFrame{node: first + j, lo: lo, hi: hi})
			}
			continue
		}
		for _, p := range f.positions[first : first+c] {
			w := f.ext.Extract(int(p), f.cfg.L, buf)
			for _, qi := range active[lo:hi] {
				tk[qi].offer(int(p), w, qs[qi])
			}
		}
	}

	for qi := range tk {
		out[qi] = tk[qi].sorted()
	}
	return out
}
