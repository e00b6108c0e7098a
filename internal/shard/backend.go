package shard

// The contract a node's shard.Index serves over the shard RPC: the
// three search paths below, over an assigned slice of a saved index's
// shards (OpenArenaShards). A coordinator (internal/cluster) fans one
// query across nodes whose shard sets partition the saved index and
// recombines with the same deterministic merges the local fan-out
// uses, so the answer never depends on where the shards live.
//
//   - Queries are in the engine's normalized value space (the caller
//     transforms once; see Engine.PrepareQuery).
//   - Range-style results (range, stats, prefix tree) are sorted
//     by start position; top-k results by the (dist, start) total
//     order. Result sets from indexes over disjoint shard sets are
//     disjoint, so a k-way merge reproduces the single-engine order.
//   - SearchPrefixTreeCtx reports prefix twins among the index's own
//     window starts only (a local index's appended tail included). The
//     windows that exist only at the shorter query length belong to no
//     shard; exactly one party (the coordinator, or SearchPrefix on a
//     full local index) scans them.
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

// queueSearch enqueues one unit per held shard of b for one range
// search into g — the core of SearchStatsCtx and SearchPrefixTreeCtx.
// Each unit traverses its shard's whole tree; a prefix search (len(q) <
// L) runs the truncated-bounds traversal, whose counters are not kept.
// A nil ctx never cancels.
func (s *Index) queueSearch(g *exec.Group, ctx context.Context, b *base, q []float64, eps float64, prefix bool) pendingSearch {
	res := make([][]series.Match, len(b.frozen))
	st := make([]core.Stats, len(b.frozen))
	for i, f := range b.frozen {
		g.Go(func(*exec.Ctx) {
			if canceled(ctx) {
				return
			}
			if prefix {
				res[i], _ = f.SearchPrefixTree(q, eps) // validated by the caller
			} else {
				res[i], st[i] = f.SearchStats(q, eps)
			}
		})
	}
	return pendingSearch{res: res, st: st}
}

// SearchCtx is Search honoring cancellation: once ctx is done, queued
// shard traversals are skipped and the call returns ctx.Err().
func (s *Index) SearchCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := s.SearchStatsCtx(ctx, q, eps)
	return ms, err
}

// SearchStatsCtx is SearchStats honoring cancellation: one range
// search over the base (enqueue, wait, merge) and the tail's scan, whose
// windows count as candidates. An Index holding one shard traverses it
// inline, without the executor hop.
func (s *Index) SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	b, to := s.snapshot()
	var ms []series.Match
	var st core.Stats
	tsp := obs.SpanFrom(ctx).StartChild("traverse")
	if len(b.frozen) == 1 {
		ms, st = b.frozen[0].SearchStats(q, eps)
		setShardAttrs(tsp, st)
		tsp.End()
	} else {
		g := s.ex.NewGroup()
		p := s.queueSearch(g, ctx, b, q, eps, false)
		g.Wait()
		setShardSpans(tsp, p.st)
		tsp.End()
		if canceled(ctx) {
			return nil, core.Stats{}, ctx.Err()
		}
		msp := obs.SpanFrom(ctx).StartChild("merge")
		ms, st = p.resolve()
		msp.End()
	}
	ms, st = s.withTail(obs.SpanFrom(ctx), b, to, q, eps, ms, st)
	return ms, st, nil
}

// withTail appends to a range answer over b the twins among the tail
// windows [b.end(), to), counting them into st. A traced query's span
// sp also books the scan — a "tail" child carrying its candidates and
// abandons — so that the tree's counters sum to st.
func (s *Index) withTail(sp *obs.Span, b *base, to int, q []float64, eps float64, ms []series.Match, st core.Stats) ([]series.Match, core.Stats) {
	if sp == nil || to == b.end() {
		ms = core.ScanTail(s.ext, q, eps, b.end(), to, ms, &st)
	} else {
		setTail(sp, b, to)
		tsp := sp.StartChild("tail")
		var tail core.Stats
		ms = core.ScanTail(s.ext, q, eps, b.end(), to, ms, &tail)
		tsp.Set("candidates", tail.Candidates)
		tsp.Set("abandons", tail.Abandons)
		tsp.End()
		st = AddStats(st, tail)
	}
	st.Results = len(ms)
	return ms, st
}

// setTail notes on a traced query's span how many tail windows it scans
// (to − b.end()); a query with none gets no attribute.
func setTail(sp *obs.Span, b *base, to int) {
	if sp != nil && to > b.end() {
		sp.Set("tail_windows", to-b.end())
	}
}

// setShardSpans hangs one counter child per shard under a fanned-out
// traverse span. It runs after the barrier from already-collected
// stats, so the hot work-unit closures stay untouched by tracing.
// Shard timings interleave across workers; the shard spans carry
// counters, not durations. Nil-safe.
func setShardSpans(tsp *obs.Span, perShard []core.Stats) {
	if tsp == nil {
		return
	}
	for i, st := range perShard {
		ssp := tsp.StartChild(fmt.Sprintf("shard[%d]", i))
		setShardAttrs(ssp, st)
		ssp.End()
	}
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

// pendingTopK holds the per-shard lists of one enqueued top-k search;
// resolve merges them after the group completes and offers the merged
// list the tail — the top-k counterpart of pendingSearch.
type pendingTopK struct {
	lists [][]series.Match // [shard], each in (dist, start) order
	st    []core.Stats     // [shard]; traced queries only
	k     int
	// The tail [from, to) the shards' base does not cover.
	ext      *series.Extractor
	q        []float64
	from, to int
}

// queueTopK enqueues one unit per held shard of b for one top-k search
// into g — the one place top-k units are enqueued — and records the
// tail [b.end(), to). The shards' traversals share one pruning bound
// that starts at the caller's bound (math.Inf(1) = unbounded). It only
// tightens the initial threshold; pruning stays on strict inequality,
// so the merged result equals an unbounded traversal's whenever bound
// is an upper bound on the true k-th distance. traced keeps the
// shards' counters for setShardSpans; untraced queries drop them and
// allocate nothing for them. A nil ctx never cancels.
func (s *Index) queueTopK(g *exec.Group, ctx context.Context, b *base, to int, q []float64, k int, bound float64, traced bool) pendingTopK {
	shared := core.NewSharedBound()
	shared.Tighten(bound)
	lists := make([][]series.Match, len(b.frozen))
	var sts []core.Stats
	if traced {
		sts = make([]core.Stats, len(b.frozen))
	}
	for i, f := range b.frozen {
		g.Go(func(*exec.Ctx) {
			if canceled(ctx) {
				return
			}
			ms, st := f.SearchTopKShared(q, k, shared)
			lists[i] = ms
			if sts != nil {
				sts[i] = st
			}
		})
	}
	return pendingTopK{lists: lists, st: sts, k: k, ext: s.ext, q: q, from: b.end(), to: to}
}

// resolve k-way merges the shard lists into the first k matches under
// the (dist, start) total order and offers that list the tail windows.
// Call it only after the group's Wait.
func (p pendingTopK) resolve() []series.Match {
	return core.ScanTailTopK(p.ext, p.q, p.k, p.from, p.to, MergeTopK(p.lists, p.k))
}

// SearchTopKCtx is SearchTopK honoring cancellation, with the shared
// pruning bound starting at the caller's bound (math.Inf(1) =
// unbounded; see the contract above and queueTopK): the base's
// traversal, then the tail offered to its list.
func (s *Index) SearchTopKCtx(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	if k <= 0 {
		return nil, nil
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	b, to := s.snapshot()
	// Traced queries get the same traverse/shard[i]/merge tree threshold
	// search records, filled from the shards' own counters.
	setTail(obs.SpanFrom(ctx), b, to)
	tsp := obs.SpanFrom(ctx).StartChild("traverse")
	if len(b.frozen) == 1 {
		// A lone traversal shares its bound with nobody: unless the
		// caller passes one, its own k-th best is the whole limit, and
		// nil spares the query an allocation.
		var shared *core.SharedBound
		if !math.IsInf(bound, 1) {
			shared = core.NewSharedBound()
			shared.Tighten(bound)
		}
		ms, st := b.frozen[0].SearchTopKShared(q, k, shared)
		setShardAttrs(tsp, st)
		tsp.End()
		return core.ScanTailTopK(s.ext, q, k, b.end(), to, ms), nil
	}
	g := s.ex.NewGroup()
	p := s.queueTopK(g, ctx, b, to, q, k, bound, tsp != nil)
	g.Wait()
	setShardSpans(tsp, p.st)
	tsp.End()
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	msp := obs.SpanFrom(ctx).StartChild("merge")
	ms := p.resolve()
	msp.End()
	return ms, nil
}

// SearchPrefixTreeCtx is the tree half of SearchPrefix honoring
// cancellation: the range fan-out with the truncated-bound traversal
// (queueSearch, resolve; counters discarded) — prefix twins among the
// indexed starts only, the tail's windows scanned at the query's
// length. The windows that exist only at the shorter length are NOT
// scanned here (the contract above): the caller decides who scans
// them exactly once.
func (s *Index) SearchPrefixTreeCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	b, to := s.snapshot()
	if err := core.ValidatePrefix(q, s.l, s.ext.Mode()); err != nil {
		return nil, err
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	var tree []series.Match
	if len(b.frozen) == 1 {
		tree, _ = b.frozen[0].SearchPrefixTree(q, eps) // validated above
	} else {
		g := s.ex.NewGroup()
		p := s.queueSearch(g, ctx, b, q, eps, true)
		g.Wait()
		if canceled(ctx) {
			return nil, ctx.Err()
		}
		tree, _ = p.resolve()
	}
	return core.ScanTail(s.ext, q, eps, b.end(), to, tree, nil), nil
}
