package shard

// The contract a node's shard.Index serves over the shard RPC: the
// two search paths below, over an assigned slice of a saved index's
// shards (OpenArenaShards). A coordinator (internal/cluster) fans one
// query across nodes whose shard sets partition the saved index and
// recombines with the same deterministic merges the local fan-out
// uses, so the answer never depends on where the shards live.
//
//   - Queries are in the engine's normalized value space (the caller
//     transforms once; see Engine.PrepareQuery).
//   - Range results are sorted by start position; top-k results by
//     the (dist, start) total order. Result sets from indexes over
//     disjoint shard sets are disjoint, so a k-way merge reproduces the
//     single-engine order.
//   - A range query may be shorter than the indexed length L (1 ≤
//     len(q) ≤ L; the caller validates, and refuses a shorter query
//     under per-subsequence normalization). Its windows that exist only
//     at the shorter length — the L − len(q) starts past the last
//     indexed one — belong to no shard: the index holding the
//     container's last shard scans them as part of its tail. A local
//     index always holds it, and among the nodes of a cluster exactly
//     one group does, so every such window is scanned once.
//   - SearchTopKCtx's bound is the caller's: the traversals start from
//     it as their shared pruning bound, and skip subtrees whose lower
//     bound strictly exceeds it, so a coordinator can broadcast its
//     current k-th threshold to prune remote work. math.Inf(1) means
//     the caller has none, and the traversals start unbounded. Because
//     pruning is on strict inequality — identical to the bound one
//     shard's traversal publishes to another — a bound at or above the
//     true k-th distance never changes the merged top-k.
//   - ctx cancels remaining work: queued shard traversals are skipped
//     once ctx is done, and the call returns ctx.Err().
//   - Replica interchangeability: two indexes opened over the same
//     shard set of the same saved index are answer-equivalent — every
//     method returns the same matches AND the same Stats counters for
//     the same arguments, because a saved index freezes tree shape and
//     traversal order, and every shard is traversed whole, from its
//     root, whatever the executor's width. The cluster tier's failover
//     and hedging rest on this: whichever replica answers a unit, the
//     bytes are the same. The index must stay deterministic per
//     (index bytes, shard set, query) — no randomized traversal, no
//     split that depends on the machine, no time-dependent
//     short-circuits.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
)

// canceled reports whether ctx is already done. A shard's work unit
// polls it before traversing, so a disconnected client's queued shards
// stop burning executor time.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Every query path below is one skeleton: snapshot the base and the
// window count, traverse the base (inline on a lone shard, else through
// fanOut), merge the shards' lists, and hand the windows past the base
// to the tail step (Tail).

// fanOut is the traverse step of a query over more than one shard: it
// runs search on every held shard of b, one executor unit per shard,
// each a whole-tree traversal, waits once, and returns the shards'
// lists and their counters summed. A traced query (sp not nil) gets a
// "traverse" child of sp holding one counter child per shard, booked
// after the barrier from the collected counters so the units stay
// untouched by tracing; shard timings interleave across workers, so
// the shard spans carry counters, not durations. Units still queued
// once ctx is done are skipped, and fanOut then returns ctx.Err(). A
// nil ctx never cancels.
func (s *Index) fanOut(ctx context.Context, sp *obs.Span, b *base, search func(*core.Frozen) ([]series.Match, core.Stats)) ([][]series.Match, core.Stats, error) {
	tsp := sp.StartChild("traverse")
	lists := make([][]series.Match, len(b.frozen))
	sts := make([]core.Stats, len(b.frozen))
	g := s.ex.NewGroup()
	for i, f := range b.frozen {
		g.Go(func(*exec.Ctx) {
			if !canceled(ctx) {
				lists[i], sts[i] = search(f)
			}
		})
	}
	g.Wait()
	var sum core.Stats
	for i, st := range sts {
		sum = AddStats(sum, st)
		if tsp != nil {
			ssp := tsp.StartChild(fmt.Sprintf("shard[%d]", i))
			setShardAttrs(ssp, st)
			ssp.End()
		}
	}
	tsp.End()
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	return lists, sum, nil
}

// setShardAttrs annotates one shard's traversal span with its counters.
// Nil-safe.
func setShardAttrs(sp *obs.Span, st core.Stats) {
	if sp == nil {
		return
	}
	sp.Set("nodes_visited", st.NodesVisited)
	sp.Set("nodes_pruned", st.NodesPruned)
	sp.Set("leaves_reached", st.LeavesReached)
	sp.Set("candidates", st.Candidates)
	sp.Set("abandons", st.Abandons)
	// Results is deliberately omitted: the tail and the merge decide the
	// final set; the query's root span reports it.
}

// Tail is the tail step of every query path: scan verifies the n
// windows no traversal covered — an index's tail, or the windows a
// cached answer predates — and returns its counters, which Tail passes
// back. A traced query's span sp books the scan: n as its
// tail_windows, and a "tail" child carrying the scan's candidates and
// abandons, so that the span tree's counters sum to the query's. scan
// does not run when n is 0.
func Tail(sp *obs.Span, n int, scan func() core.Stats) core.Stats {
	if n <= 0 {
		return core.Stats{}
	}
	if sp == nil {
		return scan()
	}
	sp.Set("tail_windows", n)
	tsp := sp.StartChild("tail")
	st := scan()
	tsp.Set("candidates", st.Candidates)
	tsp.Set("abandons", st.Abandons)
	tsp.End()
	return st
}

// SearchCtx is Search honoring cancellation: once ctx is done, queued
// shard traversals are skipped and the call returns ctx.Err().
func (s *Index) SearchCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := s.SearchStatsCtx(ctx, q, eps)
	return ms, err
}

// SearchStatsCtx is SearchStats honoring cancellation: one range
// search over the base, its shards' answers concatenated — position
// order, the partition being contiguous — and their counters summed,
// then the tail's scan, whose windows count as candidates. A query
// shorter than L runs the same steps (see the contract above): the
// index holding the container's last shard extends its tail by the
// L − len(q) windows that exist only at the query's length, counted
// from the snapshot so that a concurrent Extend cannot widen it.
func (s *Index) SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	b, to := s.snapshot()
	if s.ids[len(s.ids)-1] == s.total-1 {
		to += s.l - len(q)
	}
	sp := obs.SpanFrom(ctx)
	var ms []series.Match
	var st core.Stats
	if len(b.frozen) == 1 {
		tsp := sp.StartChild("traverse")
		ms, st = b.frozen[0].SearchStats(q, eps)
		setShardAttrs(tsp, st)
		tsp.End()
	} else {
		lists, sum, err := s.fanOut(ctx, sp, b, func(f *core.Frozen) ([]series.Match, core.Stats) {
			return f.SearchStats(q, eps)
		})
		if err != nil {
			return nil, core.Stats{}, err
		}
		msp := sp.StartChild("merge")
		ms, st = slices.Concat(lists...), sum
		msp.End()
	}
	st = AddStats(st, Tail(sp, to-b.end(), func() (tail core.Stats) {
		ms = core.ScanTail(s.ext, q, eps, b.end(), to, ms, &tail)
		return tail
	}))
	st.Results = len(ms)
	return ms, st, nil
}

// SearchTopKCtx is SearchTopK honoring cancellation, its traversals
// pruning against the caller's bound (math.Inf(1) = unbounded; see the
// contract above): the shards' traversals share one pruning bound that
// starts at it and only tightens, their lists are k-way merged, and the
// tail windows are offered to the merged list.
func (s *Index) SearchTopKCtx(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	if k <= 0 {
		return nil, nil
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	b, to := s.snapshot()
	sp := obs.SpanFrom(ctx)
	var ms []series.Match
	if len(b.frozen) == 1 {
		// A lone traversal shares its bound with nobody: unless the
		// caller passes one, its own k-th best is the whole limit, and
		// nil spares the query an allocation.
		var shared *core.SharedBound
		if !math.IsInf(bound, 1) {
			shared = core.NewSharedBound()
			shared.Tighten(bound)
		}
		tsp := sp.StartChild("traverse")
		var st core.Stats
		ms, st = b.frozen[0].SearchTopKShared(q, k, shared)
		setShardAttrs(tsp, st)
		tsp.End()
	} else {
		shared := core.NewSharedBound()
		shared.Tighten(bound)
		lists, _, err := s.fanOut(ctx, sp, b, func(f *core.Frozen) ([]series.Match, core.Stats) {
			return f.SearchTopKShared(q, k, shared)
		})
		if err != nil {
			return nil, err
		}
		msp := sp.StartChild("merge")
		ms = MergeTopK(lists, k)
		msp.End()
	}
	Tail(sp, to-b.end(), func() (tail core.Stats) {
		ms = core.ScanTailTopK(s.ext, q, k, b.end(), to, ms, &tail)
		return tail
	})
	return ms, nil
}
