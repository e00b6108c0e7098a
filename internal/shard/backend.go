package shard

// Backend abstracts "something that can answer the four TS-Index search
// paths over a set of shards" — the seam the distributed tier
// (internal/cluster) plugs into. Two implementations exist: an Index
// holding an assigned slice of a saved index's shards (OpenArenaShards),
// and cluster's HTTP client talking to a remote node that itself serves
// such an Index. A coordinator fans one query across several Backends
// whose shard sets partition the saved index and recombines with the
// same deterministic merges the local fan-out uses, so the answer never
// depends on where the shards live.
//
// Contracts shared by every implementation:
//
//   - Queries are in the engine's normalized value space (the caller
//     transforms once; see Engine.PrepareQuery).
//   - Range-style results (range, stats, prefix tree) are sorted
//     by start position; top-k results by the (dist, start) total
//     order. Result sets from backends over disjoint shard sets are
//     disjoint, so a k-way merge reproduces the single-engine order.
//   - SearchPrefixTreeCtx reports prefix twins among the backend's own
//     window starts only (a local index's appended tail included). The
//     windows that exist only at the shorter query length belong to no
//     shard; exactly one party (the coordinator, or SearchPrefix on a
//     full local index) scans them.
//   - SearchTopKCtx's bound seeds the traversal's shared pruning bound:
//     subtrees whose lower bound strictly exceeds it are skipped, so a
//     coordinator can broadcast its current k-th threshold to prune
//     remote work. math.Inf(1) means unbounded. Because pruning is on
//     strict inequality — identical to the bound one fan-out unit
//     publishes to another — seeding never changes the merged top-k.
//   - ctx cancels remaining work: queued work units are skipped and
//     remote calls abandoned once ctx is done, and the call returns
//     ctx.Err().
//   - Replica interchangeability: two Backends opened over the same
//     shard set of the same saved index are answer-equivalent — every
//     method returns the same matches AND the same Stats counters for
//     the same arguments, because a saved index freezes tree shape and
//     traversal order. The cluster tier's failover and hedging rest on
//     this: whichever replica answers a unit, the bytes are the same.
//     Implementations must stay deterministic per (index bytes, shard
//     set, query) — no randomized traversal, no time-dependent
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

// Backend is one group of shards answering the four search paths; see
// the package-level contract above.
type Backend interface {
	SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error)
	SearchTopKCtx(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error)
	SearchPrefixTreeCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error)

	// Windows is the number of indexed window positions the backend
	// serves.
	Windows() int
	// ShardIDs lists the global shard indices served, ascending.
	ShardIDs() []int
	// MemoryBytes / MappedBytes report the heap-resident and
	// file-mapped footprints (0 for remote backends, which spend their
	// memory in another process).
	MemoryBytes() int
	MappedBytes() int
}

// MergeByStart k-way merges start-sorted, start-disjoint match lists
// into one start-sorted list — the deterministic range merge every
// fan-out layer (units→shard, shard→index, node→coordinator) reuses.
func MergeByStart(per [][]series.Match) []series.Match {
	total := 0
	for _, ms := range per {
		total += len(ms)
	}
	if total == 0 {
		return nil
	}
	return mergeByStart(per, total)
}

// MergeTopK k-way merges start-disjoint, (dist, start)-sorted lists and
// returns the first k under that total order — the deterministic top-k
// merge shared with the coordinator.
func MergeTopK(per [][]series.Match, k int) []series.Match {
	return mergeTopK(per, k)
}

// AddStats sums two traversal-counter records field by field — the one
// accumulation every fan-out layer (units→shard, node→coordinator)
// must share, so a new counter cannot be summed in one place and
// dropped in another.
func AddStats(a, b core.Stats) core.Stats {
	return addStats(a, b)
}

// canceled reports whether ctx is already done. Work units poll it
// before traversing — a unit costs microseconds, so unit granularity is
// fine-grained enough for a disconnected client to stop burning
// executor time.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

var _ Backend = (*Index)(nil)

// queueSearch enqueues the (shard, subtree) units of b for one range
// search into g — the core of SearchStatsCtx and SearchPrefixTreeCtx —
// and records the tail [b.end(), to) for Resolve to scan. A prefix
// search (len(q) < L) runs the prefix-capable unit, whose counters are
// not kept. A nil ctx never cancels.
func (s *Index) queueSearch(g *exec.Group, ctx context.Context, b *base, to int, q []float64, eps float64, prefix bool) *PendingSearch {
	fr := s.unitFrontiers(b)
	p := &PendingSearch{
		res: make([][][]series.Match, len(fr)),
		st:  make([][]core.Stats, len(fr)),
		ext: s.ext, q: q, eps: eps, from: b.end(), to: to,
	}
	for i, units := range fr {
		p.res[i] = make([][]series.Match, len(units))
		p.st[i] = make([]core.Stats, len(units))
		f := b.frozen[i]
		for j, u := range units {
			g.Go(func(*exec.Ctx) {
				if canceled(ctx) {
					return
				}
				if prefix {
					p.res[i][j] = f.SearchPrefixTreeFrom(u, q, eps)
				} else {
					p.res[i][j], p.st[i][j] = f.SearchStatsFrom(u, q, eps)
				}
			})
		}
	}
	return p
}

// SearchCtx is Search honoring cancellation: once ctx is done, queued
// work units are skipped and the call returns ctx.Err().
func (s *Index) SearchCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := s.SearchStatsCtx(ctx, q, eps)
	return ms, err
}

// SearchStatsCtx is SearchStats honoring cancellation: one range
// search over the base (enqueue, wait, merge) and the tail's scan, whose
// windows count as candidates.
func (s *Index) SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	return s.searchStats(ctx, q, eps)
}

// searchStats is SearchStatsCtx. The whole-tree fast path is taken only
// when the one shard IS the whole container: an Index holding one shard
// of a larger container must still traverse frontier units so its
// counters (which skip nodes above unit roots) agree with the full
// fan-out's.
func (s *Index) searchStats(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	b, to := s.snapshot()
	sp := obs.SpanFrom(ctx)
	if s.total == 1 {
		tsp := sp.StartChild("traverse")
		ms, st := b.frozen[0].SearchStats(q, eps)
		setShardAttrs(tsp, st, 0)
		tsp.End()
		ms, st = s.withTail(sp, b, to, q, eps, ms, st)
		return ms, st, nil
	}
	setTail(sp, b, to)
	g := s.ex.NewGroup()
	tsp := sp.StartChild("traverse")
	p := s.queueSearch(g, ctx, b, to, q, eps, false)
	g.Wait()
	setUnitSpans(tsp, g, p.st)
	tsp.End()
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	msp := sp.StartChild("merge")
	ms, st := p.Resolve()
	msp.End()
	return ms, st, nil
}

// withTail appends to a range answer over b the twins among the tail
// windows [b.end(), to), counting them into st.
func (s *Index) withTail(sp *obs.Span, b *base, to int, q []float64, eps float64, ms []series.Match, st core.Stats) ([]series.Match, core.Stats) {
	setTail(sp, b, to)
	ms = core.ScanTail(s.ext, q, eps, b.end(), to, ms, &st)
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

// setUnitSpans hangs one counter child per shard under a fanned-out
// traverse span, summed from that shard's unit stats. It runs after the
// barrier from already-collected stats, so the hot work-unit closures
// stay untouched by tracing. Unit timings interleave across workers;
// the shard spans carry counters, not durations. Nil-safe.
func setUnitSpans(tsp *obs.Span, g *exec.Group, perShard [][]core.Stats) {
	if tsp == nil {
		return
	}
	tsp.Set("steals", int(g.Steals()))
	for i, units := range perShard {
		var st core.Stats
		for _, u := range units {
			st = addStats(st, u)
		}
		ssp := tsp.StartChild(fmt.Sprintf("shard[%d]", i))
		setShardAttrs(ssp, st, len(units))
		ssp.End()
	}
}

// setShardAttrs annotates one shard's traversal span with its summed
// counters. units == 0 means the whole-tree direct path. Nil-safe.
func setShardAttrs(sp *obs.Span, st core.Stats, units int) {
	if sp == nil {
		return
	}
	if units > 0 {
		sp.Set("units", units)
	}
	sp.Set("nodes_visited", st.NodesVisited)
	sp.Set("nodes_pruned", st.NodesPruned)
	sp.Set("leaves_reached", st.LeavesReached)
	sp.Set("candidates", st.Candidates)
	sp.Set("abandons", st.Abandons)
	// Results is deliberately omitted: unit stats carry 0 until the
	// merge resolves the final set; the query's root span reports it.
}

// PendingTopK holds the per-unit lists of one enqueued top-k search;
// Resolve merges them after the group completes and offers the merged
// list the tail — the top-k counterpart of PendingSearch. A plain
// value: the single-query path allocates nothing for it.
type PendingTopK struct {
	lists [][]series.Match // [unit], each in (dist, start) order
	st    [][]core.Stats   // [shard][unit]; traced queries only
	k     int
	// The tail [from, to) the units' base does not cover.
	ext      *series.Extractor
	q        []float64
	from, to int
}

// queueTopK enqueues the (shard, subtree) units of b for one top-k
// search into g — the one place top-k units are enqueued — and records
// the tail [b.end(), to). The units share one pruning bound seeded to bound
// (math.Inf(1) = unbounded). Seeding only tightens the initial
// threshold; pruning stays on strict inequality, so the merged result
// equals the unseeded traversal's whenever bound is an upper bound on
// the true k-th distance. traced keeps the units' counters for
// setUnitSpans; untraced queries drop them and allocate nothing for
// them. A nil ctx never cancels.
func (s *Index) queueTopK(g *exec.Group, ctx context.Context, b *base, to int, q []float64, k int, bound float64, traced bool) PendingTopK {
	if k <= 0 {
		return PendingTopK{}
	}
	fr := s.unitFrontiers(b)
	shared := core.NewSharedBound()
	shared.Tighten(bound)
	n := 0
	for _, us := range fr {
		n += len(us)
	}
	lists := make([][]series.Match, n)
	var sts [][]core.Stats
	if traced {
		sts = make([][]core.Stats, len(fr))
		for i, us := range fr {
			sts[i] = make([]core.Stats, len(us))
		}
	}
	at := 0
	for i, us := range fr {
		f := b.frozen[i]
		for j, u := range us {
			slot := at
			at++
			g.Go(func(*exec.Ctx) {
				if canceled(ctx) {
					return
				}
				ms, st := f.SearchTopKSharedFrom(u, q, k, shared)
				lists[slot] = ms
				if sts != nil {
					sts[i][j] = st
				}
			})
		}
	}
	return PendingTopK{lists: lists, st: sts, k: k, ext: s.ext, q: q, from: b.end(), to: to}
}

// Resolve k-way merges the unit lists into the first k matches under
// the (dist, start) total order and offers that list the tail windows.
// Call it only after the group's Wait.
func (p PendingTopK) Resolve() []series.Match {
	return core.ScanTailTopK(p.ext, p.q, p.k, p.from, p.to, mergeTopK(p.lists, p.k))
}

// SearchTopKCtx is SearchTopK honoring cancellation, with the shared
// pruning bound seeded to bound (math.Inf(1) = unbounded; see Backend
// and queueTopK): the base's traversal, then the tail offered to its
// list.
func (s *Index) SearchTopKCtx(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	return s.searchTopK(ctx, q, k, bound)
}

// searchTopK is SearchTopKCtx.
func (s *Index) searchTopK(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	if k <= 0 {
		return nil, nil
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	b, to := s.snapshot()
	// Traced queries get the same traverse/shard[i]/merge tree threshold
	// search records, filled from the units' own counters.
	sp := obs.SpanFrom(ctx)
	setTail(sp, b, to)
	if len(b.frozen) == 1 {
		// A lone traversal shares its bound with nobody: unless the
		// caller seeds one, its own k-th best is the whole limit, and
		// nil spares the query an allocation.
		var seed *core.SharedBound
		if !math.IsInf(bound, 1) {
			seed = core.NewSharedBound()
			seed.Tighten(bound)
		}
		f := b.frozen[0]
		tsp := sp.StartChild("traverse")
		ms, st := f.SearchTopKSharedFrom(f.Root(), q, k, seed)
		setShardAttrs(tsp, st, 0)
		tsp.End()
		return core.ScanTailTopK(s.ext, q, k, b.end(), to, ms), nil
	}
	g := s.ex.NewGroup()
	tsp := sp.StartChild("traverse")
	p := s.queueTopK(g, ctx, b, to, q, k, bound, sp != nil)
	g.Wait()
	setUnitSpans(tsp, g, p.st)
	tsp.End()
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	msp := sp.StartChild("merge")
	ms := p.Resolve()
	msp.End()
	return ms, nil
}

// SearchPrefixTreeCtx is the tree half of SearchPrefix honoring
// cancellation: the range fan-out with the truncated-bound unit
// (queueSearch, Resolve; counters discarded) — prefix twins among the
// indexed starts only, the tail's windows scanned at the query's
// length. The windows that exist only at the shorter length are NOT
// scanned here (the Backend contract): the caller decides who scans
// them exactly once.
func (s *Index) SearchPrefixTreeCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	b, to := s.snapshot()
	if err := b.frozen[0].ValidatePrefix(q); err != nil {
		return nil, err
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	if len(b.frozen) == 1 {
		tree, _ := b.frozen[0].SearchPrefixTree(q, eps) // validated above
		return core.ScanTail(s.ext, q, eps, b.end(), to, tree, nil), nil
	}
	g := s.ex.NewGroup()
	p := s.queueSearch(g, ctx, b, to, q, eps, true)
	g.Wait()
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	ms, _ := p.Resolve()
	return ms, nil
}
