// Package shard implements a sharded parallel TS-Index: the window
// position space [0, N−ℓ] is split into P partitions, one index is
// built per partition concurrently, and queries run as fine-grained
// (shard, subtree) work units on a work-stealing executor
// (internal/exec) — the data-partitioning strategy ParIS/MESSI apply
// to iSAX, transplanted onto the paper's TS-Index, with MESSI-style
// work queues instead of one goroutine per shard.
//
// After construction every shard is FROZEN: the pointer tree is
// compiled into core.Frozen's flat structure-of-arrays arena (packed
// MBTS bounds, index-range children, one flat positions array) and the
// pointer form is dropped. All queries traverse the arenas; Insert
// thaws the owning shard back to pointer form and the next search
// re-freezes it — the one place in the repository that handshake
// lives. An Index of ONE shard is how a single TS-Index is served: its
// queries skip the executor and run the shard's whole-tree traversal
// inline, with the answers, counters and saved bytes of a bare
// core.Frozen. An Index may also hold only some of a saved container's
// shards (OpenArenaShards): that is what a cluster node serves, and it
// is searched exactly as the whole container's fan-out searches them.
//
// Every query path has one fan-out. Its units can also be enqueued into
// a group the caller owns (QueueSearch, QueueSearchTopK): a batch is
// nothing more than N queries' units in one group, waited on once.
//
// The partition is contiguous: shard i owns window positions
// [starts[i], starts[i+1]), so shard order is position order — per-shard
// range results concatenate, and appended positions extend the last
// shard.
package shard

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
)

// Config parameterizes a sharded build.
type Config struct {
	// Config is the per-shard TS-Index configuration.
	core.Config
	// Shards is the number of partitions; ≤ 0 selects GOMAXPROCS. The
	// effective count never exceeds the number of windows.
	Shards int
	// Boundaries, when non-nil, fixes the contiguous partition
	// explicitly: entry i and i+1 delimit shard i's position range, so
	// it must be strictly increasing from 0 to the window count, and its
	// length must agree with Shards when both are set. Benchmarks and
	// tests use it to build deliberately skewed shards; the default is
	// an even split.
	Boundaries []int
	// Executor runs the build and query work units; nil selects the
	// process-wide default (GOMAXPROCS workers).
	Executor *exec.Executor
}

// Index is a sharded TS-Index over one series: every shard of a
// partition, or an assigned subset of a saved container's shards.
type Index struct {
	ext *series.Extractor
	l   int
	// frozen holds each held shard's arena — the form every query
	// traverses; frozen[i] is the container's shard ids[i].
	frozen []*core.Frozen
	ids    []int // ascending; 0, 1, … when every shard is held
	total  int   // shard count of the whole container
	// pointer[i] is shard i thawed for insertion; nil while the shard is
	// frozen-only. Once a shard is thawed it stays resident (repeated
	// Insert/refreeze cycles then skip the thaw).
	pointer []*core.Index
	// starts is the container's boundary table (total+1 entries): its
	// shard i owns window positions [starts[i], starts[i+1]).
	starts []int
	ex     *exec.Executor

	// Refreeze bookkeeping: Insert marks shards dirty; the next search
	// re-freezes them before traversing (ensureFrozen). Insert must not
	// run concurrently with searches, so dirtyShard needs no lock of its
	// own; the atomic dirty flag publishes the writes and mu serializes
	// racing searches.
	dirty      atomic.Bool
	dirtyShard []bool
	mu         sync.Mutex

	// units caches each shard's subtree frontier — the (shard, subtree)
	// work units a query enqueues. Refreezing invalidates it; concurrent
	// searches recompute it racily but deterministically, so whichever
	// Store wins is equivalent.
	units atomic.Pointer[[][]core.FrozenSubtree]
}

// Build partitions the position space, constructs every shard on the
// executor, and freezes each shard's tree into its flat arena. With
// Shards resolving to 1 the result is core.Build's tree, frozen, behind
// the fan-out API — bit-identical answers either way.
func Build(ext *series.Extractor, cfg Config) (*Index, error) {
	if cfg.L <= 0 {
		return nil, fmt.Errorf("shard: invalid subsequence length %d", cfg.L)
	}
	count := series.NumSubsequences(ext.Len(), cfg.L)
	if count == 0 {
		return nil, fmt.Errorf("shard: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	ex := cfg.Executor
	if ex == nil {
		ex = exec.Default()
	}

	var starts []int
	if cfg.Boundaries != nil {
		if err := validateBoundaries(cfg.Boundaries, cfg.Shards, count); err != nil {
			return nil, err
		}
		starts = append([]int(nil), cfg.Boundaries...)
	} else {
		p := cfg.Shards
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		if p > count {
			p = count
		}
		starts = make([]int, p+1)
		for i := range starts {
			starts[i] = i * count / p
		}
	}
	p := len(starts) - 1

	frozen := make([]*core.Frozen, p)
	errs := make([]error, p)
	ex.ForEach(p, func(i int) {
		ix, err := core.BuildRange(ext, cfg.Config, starts[i], starts[i+1])
		if err != nil {
			errs[i] = err
			return
		}
		// Freeze inside the same work unit (arenas compile in parallel)
		// and let the pointer tree go: the arena is the index now.
		frozen[i] = ix.Freeze()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
	}
	return assemble(ext, cfg.L, frozen, nil, starts, ex), nil
}

// assemble makes an Index of the shards ids (nil: every shard) of the
// container whose boundary table is starts; frozen[i] is shard ids[i].
func assemble(ext *series.Extractor, l int, frozen []*core.Frozen, ids, starts []int, ex *exec.Executor) *Index {
	if ex == nil {
		ex = exec.Default()
	}
	if ids == nil {
		ids = make([]int, len(frozen))
		for i := range ids {
			ids[i] = i
		}
	}
	return &Index{ext: ext, l: l, frozen: frozen, ids: ids, total: len(starts) - 1,
		pointer: make([]*core.Index, len(frozen)), dirtyShard: make([]bool, len(frozen)),
		starts: starts, ex: ex}
}

// validateBoundaries rejects partitions that don't cover [0, count)
// with strictly increasing non-empty ranges.
func validateBoundaries(b []int, shards, count int) error {
	if len(b) < 2 {
		return fmt.Errorf("shard: %d boundary entries delimit no shards", len(b))
	}
	if shards != 0 && shards != len(b)-1 {
		return fmt.Errorf("shard: %d boundary entries delimit %d shards, Config.Shards says %d", len(b), len(b)-1, shards)
	}
	if b[0] != 0 {
		return fmt.Errorf("shard: first boundary %d, want 0", b[0])
	}
	if b[len(b)-1] != count {
		return fmt.Errorf("shard: last boundary %d, series has %d windows", b[len(b)-1], count)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return fmt.Errorf("shard: boundary %d (%d) not after boundary %d (%d)", i, b[i], i-1, b[i-1])
		}
	}
	return nil
}

// Executor returns the executor the index schedules its queries on.
func (s *Index) Executor() *exec.Executor { return s.ex }

// ensureFrozen re-freezes any shards Insert has thawed and mutated.
// Hot path cost is one atomic load; the mutex only serializes searches
// racing to refreeze after an insertion batch (Insert itself must not
// run concurrently with searches).
func (s *Index) ensureFrozen() {
	if !s.dirty.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty.Load() {
		return
	}
	for i, d := range s.dirtyShard {
		if d {
			s.frozen[i] = s.pointer[i].Freeze()
			s.dirtyShard[i] = false
		}
	}
	s.units.Store(nil)
	s.dirty.Store(false)
}

// unitFrontiers returns the cached (shard → subtrees) split,
// recomputing it after insertion invalidated the cache. The per-shard
// target over-provisions units (4×) relative to the wider of the
// index's executor and the machine (GOMAXPROCS), giving stealing slack
// to even out skewed shards. The split decides which nodes sit above a
// unit's root and are never visited, so the traversal counters of
// every fanned-out query depend on this rule: change it and they move.
// The target divides by the CONTAINER's shard count, not the held
// count, so an Index holding some of the shards splits each one as the
// whole container's fan-out would on the same machine, and reports the
// same counters for it.
func (s *Index) unitFrontiers() [][]core.FrozenSubtree {
	if u := s.units.Load(); u != nil {
		return *u
	}
	w := s.ex.Workers()
	if g := runtime.GOMAXPROCS(0); g > w {
		w = g
	}
	per := 1
	if t := 4 * w; t > s.total {
		per = (t + s.total - 1) / s.total
	}
	fr := make([][]core.FrozenSubtree, len(s.frozen))
	for i, f := range s.frozen {
		fr[i] = f.Frontier(per)
	}
	s.units.Store(&fr)
	return fr
}

// Search returns all twin subsequences of q at threshold eps, in start
// order — identical to core.Frozen.Search over an unsharded index.
func (s *Index) Search(q []float64, eps float64) []series.Match {
	ms, _ := s.SearchStats(q, eps)
	return ms
}

// SearchStats is Search with traversal counters summed across work
// units. Counter values differ from a single index's (each shard's
// tree packs differently, and nodes above a unit's subtree root are
// never visited); the match set does not.
func (s *Index) SearchStats(q []float64, eps float64) ([]series.Match, core.Stats) {
	ms, st, _ := s.SearchStatsCtx(nil, q, eps) // nil ctx never cancels
	return ms, st
}

// PendingSearch holds the per-unit results of one enqueued range
// search; Resolve assembles them after the group completes. It lets
// Engine.SearchBatch put many queries into one executor group — every
// (query, shard, subtree) unit is a peer in the same pool — instead of
// nesting a query pool above a shard pool.
type PendingSearch struct {
	res [][][]series.Match // [shard][unit] match lists, traversal order
	st  [][]core.Stats     // [shard][unit]
}

// QueueSearch enqueues the (shard, subtree) units of one range search
// into g and returns a handle to assemble the result. Call Resolve
// only after g.Wait() returns.
func (s *Index) QueueSearch(g *exec.Group, q []float64, eps float64) *PendingSearch {
	s.ensureFrozen()
	return s.queueSearch(g, nil, q, eps)
}

// Resolve merges the unit results deterministically: units of one
// shard are concatenated and sorted by start (the set is identical
// however the tree was split, so the sorted order is too), and the
// per-shard lists concatenate (mergePartitioned).
func (p *PendingSearch) Resolve() ([]series.Match, core.Stats) {
	var st core.Stats
	total := 0
	for i := range p.res {
		for j := range p.res[i] {
			total += len(p.res[i][j])
			st = addStats(st, p.st[i][j])
		}
	}
	st.Results = total
	if total == 0 {
		return nil, st
	}
	per := make([][]series.Match, len(p.res))
	for i := range p.res {
		n := 0
		for _, unit := range p.res[i] {
			n += len(unit)
		}
		ms := make([]series.Match, 0, n)
		for _, unit := range p.res[i] {
			ms = append(ms, unit...)
		}
		series.SortMatches(ms)
		per[i] = ms
	}
	return mergePartitioned(per), st
}

func addStats(a, b core.Stats) core.Stats {
	a.NodesVisited += b.NodesVisited
	a.NodesPruned += b.NodesPruned
	a.LeavesReached += b.LeavesReached
	a.Candidates += b.Candidates
	a.Abandons += b.Abandons
	a.Results += b.Results
	return a
}

// mergePartitioned combines per-shard start-sorted results: shards own
// ascending position ranges, so shard-order concatenation IS the
// position-order merge. Every range-search path funnels through here.
func mergePartitioned(per [][]series.Match) []series.Match {
	total := 0
	for _, ms := range per {
		total += len(ms)
	}
	if total == 0 {
		return nil
	}
	out := make([]series.Match, 0, total)
	for _, ms := range per {
		out = append(out, ms...)
	}
	return out
}

// mergeByStart k-way merges start-sorted, start-disjoint lists into one
// start-sorted list of the given total length.
func mergeByStart(per [][]series.Match, total int) []series.Match {
	h := make(startHeap, 0, len(per))
	for i, ms := range per {
		if len(ms) > 0 {
			h = append(h, mergeItem{list: i, m: ms[0]})
		}
	}
	heap.Init(&h)
	out := make([]series.Match, 0, total)
	next := make([]int, len(per))
	for h.Len() > 0 {
		top := h[0]
		out = append(out, top.m)
		next[top.list]++
		if n := next[top.list]; n < len(per[top.list]) {
			h[0] = mergeItem{list: top.list, m: per[top.list][n]}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// SearchTopK returns the k nearest subsequences under Chebyshev
// distance in ascending (distance, start) order — identical to
// core.Frozen.SearchTopK. Every unit's traversal shares one pruning
// bound (the best k-th distance any unit has admitted so far), and the
// per-unit lists are combined by a k-way merge.
func (s *Index) SearchTopK(q []float64, k int) []series.Match {
	ms, _ := s.SearchTopKCtx(nil, q, k, math.Inf(1))
	return ms
}

// QueueSearchTopK enqueues the (shard, subtree) units of one top-k
// search into g, the units sharing one pruning bound of their own, and
// returns a handle to merge their lists — the top-k counterpart of
// QueueSearch. Call Resolve only after g.Wait() returns.
func (s *Index) QueueSearchTopK(g *exec.Group, q []float64, k int) PendingTopK {
	s.ensureFrozen()
	return s.queueTopK(g, nil, q, k, math.Inf(1), false)
}

// mergeTopK k-way-merges start-disjoint, distance-sorted lists and
// returns the first k items under the (dist, start) total order.
func mergeTopK(per [][]series.Match, k int) []series.Match {
	h := make(distHeap, 0, len(per))
	for i, ms := range per {
		if len(ms) > 0 {
			h = append(h, mergeItem{list: i, m: ms[0]})
		}
	}
	heap.Init(&h)
	var out []series.Match
	next := make([]int, len(per))
	for h.Len() > 0 && len(out) < k {
		top := h[0]
		out = append(out, top.m)
		next[top.list]++
		if n := next[top.list]; n < len(per[top.list]) {
			h[0] = mergeItem{list: top.list, m: per[top.list][n]}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

type mergeItem struct {
	list int
	m    series.Match
}

// distHeap is a min-heap under the (dist, start) total order.
type distHeap []mergeItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].m.Dist != h[j].m.Dist {
		return h[i].m.Dist < h[j].m.Dist
	}
	return h[i].m.Start < h[j].m.Start
}
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// startHeap is a min-heap by start position.
type startHeap []mergeItem

func (h startHeap) Len() int            { return len(h) }
func (h startHeap) Less(i, j int) bool  { return h[i].m.Start < h[j].m.Start }
func (h startHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *startHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *startHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// SearchPrefix answers a query shorter than the indexed length (see
// core.Frozen.SearchPrefix): the truncated-bounds traversal fans across
// (shard, subtree) units and the tail windows that exist only at the
// shorter length are scanned once, here.
func (s *Index) SearchPrefix(q []float64, eps float64) ([]series.Match, error) {
	return s.SearchPrefixCtx(nil, q, eps)
}

// SearchPrefixCtx is SearchPrefix honoring cancellation: ctx flows into
// the fanned-out tree traversal, and the tail scan is skipped when the
// context has already ended. A nil ctx never cancels.
func (s *Index) SearchPrefixCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	tree, err := s.SearchPrefixTreeCtx(ctx, q, eps)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// The merged list is in position order and the tail starts extend it.
	return core.ScanPrefixTail(s.ext, s.l, q, eps, tree), nil
}

// SearchApprox probes at most leafBudget nearest leaves across all
// shards and returns a possibly incomplete subset of the twins — the
// sharded counterpart of core.Frozen.SearchApprox. The budget is one
// shared atomic allowance drawn by every shard's best-first traversal,
// not a per-shard split: shards whose leaves sit closest to the query
// spend more of it, so a skewed partition no longer burns budget on
// shards with nothing nearby. Which shard draws a contended probe
// depends on scheduling, so the subset may vary between runs; every
// match is a true twin and total leaves probed never exceed the budget.
func (s *Index) SearchApprox(q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats) {
	ms, st, _ := s.SearchApproxCtx(nil, q, eps, leafBudget)
	return ms, st
}

// Insert adds the window starting at p to the shard owning that
// position (positions past the current end extend the last shard — the
// streaming-append path). The owning shard is thawed back to pointer
// form if needed and marked dirty; the next search re-freezes it. Do
// not call concurrently with searches, nor on an Index holding only
// some of a container's shards.
func (s *Index) Insert(p int) {
	i := s.routeShard(p)
	if s.pointer[i] == nil {
		s.pointer[i] = s.frozen[i].Thaw()
	}
	s.pointer[i].Insert(p)
	s.dirtyShard[i] = true
	s.dirty.Store(true)
	s.units.Store(nil)
}

// routeShard picks the shard that owns (or will own) position p.
func (s *Index) routeShard(p int) int {
	last := len(s.starts) - 1
	if p >= s.starts[last] {
		s.starts[last] = p + 1
		return len(s.frozen) - 1
	}
	// Owning shard i satisfies starts[i] ≤ p < starts[i+1].
	return sort.SearchInts(s.starts, p+1) - 1
}

// Windows returns the number of indexed windows across the held shards.
func (s *Index) Windows() int {
	// ensureFrozen first: the arenas are then authoritative, and the
	// dirty-flag handshake orders this read against any concurrent
	// search's refreeze (plain reads of frozen[] would race with it).
	s.ensureFrozen()
	total := 0
	for _, f := range s.frozen {
		total += f.Len()
	}
	return total
}

// L returns the indexed subsequence length.
func (s *Index) L() int { return s.l }

// NumShards returns the number of shards held.
func (s *Index) NumShards() int { return len(s.frozen) }

// ShardIDs lists the container's indices of the held shards, ascending.
func (s *Index) ShardIDs() []int { return append([]int(nil), s.ids...) }

// TotalShards returns the shard count of the whole container.
func (s *Index) TotalShards() int { return s.total }

// Shard returns the frozen arena of held shard i (re-freezing first if
// an insertion left it stale).
func (s *Index) Shard(i int) *core.Frozen {
	s.ensureFrozen()
	return s.frozen[i]
}

// Range returns the position range [lo, hi) held shard i owns.
func (s *Index) Range(i int) (lo, hi int) {
	return s.starts[s.ids[i]], s.starts[s.ids[i]+1]
}

// Extractor exposes the extractor the index was built over.
func (s *Index) Extractor() *series.Extractor { return s.ext }

// MemoryBytes sums the per-shard heap-resident arena footprints, plus
// the pointer trees of any shards thawed for insertion (both forms are
// resident on the streaming path). File-mapped shard arenas are counted
// by MappedBytes instead.
func (s *Index) MemoryBytes() int {
	s.ensureFrozen() // order the frozen[] reads against refreezes
	total := 0
	for i, f := range s.frozen {
		total += f.MemoryBytes()
		if s.pointer[i] != nil {
			total += s.pointer[i].MemoryBytes()
		}
	}
	return total
}

// MappedBytes sums the file-mapped footprints of the shard arenas: the
// flat arrays of every shard still backed by an mmap'd region (see
// OpenArena). Shards re-frozen after Insert move their arrays to the
// heap and drop out of this figure.
func (s *Index) MappedBytes() int {
	s.ensureFrozen()
	total := 0
	for _, f := range s.frozen {
		total += f.MappedBytes()
	}
	return total
}

// CheckInvariants validates every shard's invariants plus the partition
// invariants (checkPartition). A heap open runs the same checks, the
// per-arena half in core.FrozenFromArena.
func (s *Index) CheckInvariants() error {
	s.ensureFrozen()
	for i, f := range s.frozen {
		if err := f.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s.ids[i], err)
		}
	}
	return s.checkPartition()
}

// checkShape validates the O(shards) partition invariants: the
// container's boundaries rise strictly from 0 to the series' window
// count, and every held shard holds exactly its range's windows.
// A mapped open stops here — walking every position of a mapped
// multi-gigabyte index would defeat the cheap open — while
// checkPartition adds the full ownership scan.
func (s *Index) checkShape() error {
	count := series.NumSubsequences(s.ext.Len(), s.l)
	if s.starts[0] != 0 || s.starts[s.total] != count {
		return fmt.Errorf("shard: ranges span [%d, %d), series has %d windows", s.starts[0], s.starts[s.total], count)
	}
	for i := 0; i < s.total; i++ {
		if s.starts[i] >= s.starts[i+1] {
			return fmt.Errorf("shard %d: empty or inverted range [%d, %d)", i, s.starts[i], s.starts[i+1])
		}
	}
	for i, f := range s.frozen {
		if lo, hi := s.Range(i); f.Len() != hi-lo {
			return fmt.Errorf("shard %d: holds %d windows, range [%d, %d) spans %d", s.ids[i], f.Len(), lo, hi, hi-lo)
		}
	}
	return nil
}

// checkPartition validates the partition invariants: the shape checks
// above plus the full ownership scan — every window position of a held
// shard's range owned exactly once, by that shard (it holds as many
// positions as its range has windows, all inside it, none twice).
func (s *Index) checkPartition() error {
	if err := s.checkShape(); err != nil {
		return err
	}
	for i, f := range s.frozen {
		lo, hi := s.Range(i)
		seen := make([]bool, hi-lo)
		for _, pos := range f.Positions() {
			if int(pos) < lo || int(pos) >= hi {
				return fmt.Errorf("shard %d: position %d outside range [%d, %d)", s.ids[i], pos, lo, hi)
			}
			if seen[int(pos)-lo] {
				return fmt.Errorf("shard %d: position %d owned twice", s.ids[i], pos)
			}
			seen[int(pos)-lo] = true
		}
	}
	return nil
}
