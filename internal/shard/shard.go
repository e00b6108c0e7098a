// Package shard implements a sharded parallel TS-Index: the window
// position space [0, N−ℓ] is split into P partitions, one index is
// built per partition concurrently, and a query runs one work unit per
// shard on the shared executor (internal/exec), each unit one
// whole-tree traversal of its shard — the data-partitioning strategy
// ParIS/MESSI apply to iSAX, transplanted onto the paper's TS-Index,
// with one pool of workers running the units of concurrent queries in
// submission order instead of one goroutine per shard.
//
// Every shard is a core.Frozen, the flat structure-of-arrays arena
// (packed MBTS bounds, index-range children, one flat positions array)
// that core.BuildRange returns. No arena is ever mutated. Windows appended
// to the series form a tail after the last shard, which every query
// scans at kernel speed, until Compact rebuilds the last shard over
// them and publishes it (see Index). An Index of ONE shard is how a
// single TS-Index is served: its queries skip the executor and run the
// shard's whole-tree traversal inline, with the answers, counters and
// saved bytes of a bare
// core.Frozen. An Index may also hold only some of a saved container's
// shards (OpenArenaShards): that is what a cluster node serves, and it
// is searched exactly as the whole container's fan-out searches them.
//
// Every query path has one fan-out: its per-shard units go into one
// executor group, waited on once, and the path merges their lists. A
// shard's traversal is never split: every held shard is traversed from
// its root by one unit, so a shard's counters are its own tree's and
// depend neither on the executor's width nor on the machine.
//
// The partition is contiguous: shard i owns window positions
// [starts[i], starts[i+1]), so shard order is position order — per-shard
// range results concatenate, and the tail, then the compaction that
// absorbs it, extend the last shard.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
//
// Its windows are a frozen base and a tail. The base is the shards'
// arenas, immutable once published; the tail is the window range
// [end, count), where end is where the base stops and count the window
// count Extend last published. Every query loads the base once and the
// count once, traverses the one and scans the other (core.ScanTail,
// core.ScanTailTopK), so it answers over [0, count) for the count it
// read. The partition is contiguous and the tail follows the last
// shard, so a range answer is the base's with the tail's appended, and
// a top-k answer is the base's list offered the tail windows. Compact
// folds the tail into the base by rebuilding the last shard and
// publishing the result as the next base.
type Index struct {
	ext   *series.Extractor
	l     int
	ids   []int // ascending; 0, 1, … when every shard is held
	total int   // shard count of the whole container
	ex    *exec.Executor

	// base is the generation of arenas queries traverse; a compaction
	// replaces it whole, under mu, and a query in flight keeps the one
	// it loaded. count is the window count queries answer over.
	base  atomic.Pointer[base]
	count atomic.Int64
	mu    sync.Mutex
}

// base is one immutable generation of an Index's arenas.
type base struct {
	// frozen holds each held shard's arena; frozen[i] is the container's
	// shard ids[i].
	frozen []*core.Frozen
	// starts is the container's boundary table (total+1 entries): its
	// shard i owns window positions [starts[i], starts[i+1]), and the
	// tail begins at starts[total].
	starts []int
}

// end is the window count the base covers: where the tail begins.
func (b *base) end() int { return b.starts[len(b.starts)-1] }

// Build partitions the position space and builds every shard's arena
// on the executor (core.BuildRange). With Shards resolving to 1 the
// result is core.Build's arena behind the fan-out API — bit-identical
// answers either way.
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
		frozen[i], errs[i] = core.BuildRange(ext, cfg.Config, starts[i], starts[i+1])
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
	s := &Index{ext: ext, l: l, ids: ids, total: len(starts) - 1, ex: ex}
	s.base.Store(&base{frozen: frozen, starts: starts})
	s.count.Store(int64(starts[len(starts)-1]))
	return s
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

// snapshot returns what one query answers over: the base it traverses
// and the window count to, so that the tail it scans is
// [b.end(), to). Each query calls it once, at its start; the base is
// loaded first, so it never ends past to.
func (s *Index) snapshot() (b *base, to int) {
	b = s.base.Load()
	return b, int(s.count.Load())
}

// Search returns all twin subsequences of q at threshold eps, in start
// order — identical to core.Frozen.Search over an unsharded index, and
// for a query shorter than L (1 ≤ len(q) ≤ L) the windows that exist
// only at its length too.
func (s *Index) Search(q []float64, eps float64) []series.Match {
	ms, _ := s.SearchStats(q, eps)
	return ms
}

// SearchStats is Search with traversal counters summed across shards.
// Counter values differ from a single index's (each shard's tree packs
// differently); the match set does not.
func (s *Index) SearchStats(q []float64, eps float64) ([]series.Match, core.Stats) {
	ms, st, _ := s.SearchStatsCtx(nil, q, eps) // nil ctx never cancels
	return ms, st
}

// AddStats sums two traversal-counter records field by field — the one
// accumulation every fan-out layer (shards→index, node→coordinator)
// must share, so a new counter cannot be summed in one place and
// dropped in another.
func AddStats(a, b core.Stats) core.Stats {
	a.NodesVisited += b.NodesVisited
	a.NodesPruned += b.NodesPruned
	a.LeavesReached += b.LeavesReached
	a.Candidates += b.Candidates
	a.Abandons += b.Abandons
	a.Results += b.Results
	return a
}

// SearchTopK returns the k nearest subsequences under Chebyshev
// distance in ascending (distance, start) order — identical to
// core.Frozen.SearchTopK. Every shard's traversal shares one pruning
// bound (the best k-th distance any shard has admitted so far), the
// per-shard lists are combined by a k-way merge, and the tail windows
// are offered to the merged list.
func (s *Index) SearchTopK(q []float64, k int) []series.Match {
	ms, _ := s.SearchTopKCtx(nil, q, k, math.Inf(1))
	return ms
}

// MergeByStart k-way merges start-sorted, start-disjoint match lists
// into one start-sorted list — the deterministic range merge a
// coordinator combines its groups' answers with.
func MergeByStart(per [][]series.Match) []series.Match {
	return merge(per, math.MaxInt, func(a, b series.Match) bool { return a.Start < b.Start })
}

// MergeTopK k-way merges start-disjoint, (dist, start)-sorted lists and
// returns the first k under that total order — the deterministic top-k
// merge of the local fan-out and of the coordinator.
func MergeTopK(per [][]series.Match, k int) []series.Match {
	return merge(per, k, func(a, b series.Match) bool {
		return a.Dist < b.Dist || a.Dist == b.Dist && a.Start < b.Start
	})
}

// merge k-way merges start-disjoint lists, each sorted under the strict
// order less, into the first limit matches under less (nil when there
// are none). The lists are few — one per shard or replica group — so
// each step takes the least of their heads by a scan.
func merge(per [][]series.Match, limit int, less func(a, b series.Match) bool) []series.Match {
	total := 0
	for _, ms := range per {
		total += len(ms)
	}
	if limit = min(limit, total); limit <= 0 {
		return nil
	}
	out := make([]series.Match, 0, limit)
	next := make([]int, len(per))
	for len(out) < limit {
		best := -1
		for i, ms := range per {
			if next[i] < len(ms) && (best < 0 || less(ms[next[i]], per[best][next[best]])) {
				best = i
			}
		}
		out = append(out, per[best][next[best]])
		next[best]++
	}
	return out
}

// The tail is compacted once it holds more than minCompact windows and
// more than 1/compactShare of the last shard's: a rebuild costs that
// shard's build and the tail costs every query a scan (≈ 6–11 ns a
// window on EEG), so the share amortizes a rebuild over as many
// appended windows and the floor spares a small index a rebuild every
// few appends.
const (
	minCompact   = 4096
	compactShare = 16
)

// Extend takes in the windows the series gained, which join the tail,
// and compacts once the tail outgrows the bound above. Only an Index
// holding every shard grows.
func (s *Index) Extend() error {
	s.count.Store(int64(series.NumSubsequences(s.ext.Len(), s.l)))
	b, to := s.snapshot()
	if to-b.end() <= max(minCompact, b.frozen[len(b.frozen)-1].Len()/compactShare) {
		return nil
	}
	return s.Compact()
}

// Compact folds the tail into the base: it rebuilds the last shard by
// insertion over its range extended to the window count — the tree a
// build over the grown series gives it — and publishes it, frozen on
// the heap, in the next base. Queries in flight keep the base they
// loaded. Compactions serialize on the index's mutex.
func (s *Index) Compact() error {
	if len(s.ids) != s.total {
		return fmt.Errorf("shard: an index holding %d of %d shards does not grow", len(s.ids), s.total)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, to := s.snapshot()
	if to == b.end() {
		return nil
	}
	last := len(b.frozen) - 1
	f, err := core.BuildRange(s.ext, b.frozen[last].Config(), b.starts[last], to)
	if err != nil {
		return fmt.Errorf("shard: compacting shard %d: %w", last, err)
	}
	next := &base{frozen: slices.Clone(b.frozen), starts: slices.Clone(b.starts)}
	next.frozen[last] = f
	next.starts[s.total] = to
	s.base.Store(next)
	return nil
}

// TailWindows returns how many windows the tail holds: the windows
// every query scans because no arena covers them yet.
func (s *Index) TailWindows() int {
	b, to := s.snapshot()
	return to - b.end()
}

// Windows returns the number of windows the index answers over: those
// of the held shards plus the tail.
func (s *Index) Windows() int {
	b, to := s.snapshot()
	total := to - b.end()
	for _, f := range b.frozen {
		total += f.Len()
	}
	return total
}

// L returns the indexed subsequence length.
func (s *Index) L() int { return s.l }

// NumShards returns the number of shards held.
func (s *Index) NumShards() int { return len(s.ids) }

// ShardIDs lists the container's indices of the held shards, ascending.
func (s *Index) ShardIDs() []int { return append([]int(nil), s.ids...) }

// TotalShards returns the shard count of the whole container.
func (s *Index) TotalShards() int { return s.total }

// Shard returns the frozen arena of held shard i in the current base;
// the tail's windows are in no arena until a compaction.
func (s *Index) Shard(i int) *core.Frozen {
	return s.base.Load().frozen[i]
}

// Range returns the position range [lo, hi) held shard i owns in the
// current base.
func (s *Index) Range(i int) (lo, hi int) {
	b := s.base.Load()
	return b.starts[s.ids[i]], b.starts[s.ids[i]+1]
}

// Extractor exposes the extractor the index was built over.
func (s *Index) Extractor() *series.Extractor { return s.ext }

// MemoryBytes sums the per-shard heap-resident arena footprints.
// File-mapped shard arenas are counted by MappedBytes instead; the tail
// is the series itself and costs no index bytes.
func (s *Index) MemoryBytes() int {
	total := 0
	for _, f := range s.base.Load().frozen {
		total += f.MemoryBytes()
	}
	return total
}

// MappedBytes sums the file-mapped footprints of the shard arenas: the
// flat arrays of every shard still backed by an mmap'd region (see
// OpenArena). A compaction rebuilds the last shard on the heap, which
// takes it out of this figure.
func (s *Index) MappedBytes() int {
	total := 0
	for _, f := range s.base.Load().frozen {
		total += f.MappedBytes()
	}
	return total
}

// CheckInvariants validates every shard's invariants plus the partition
// invariants of the current base (checkPartition), and that the base
// ends inside the series. A heap open runs the same checks, the
// per-arena half in core.OpenFrozen.
func (s *Index) CheckInvariants() error {
	b, to := s.snapshot()
	for i, f := range b.frozen {
		if err := f.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s.ids[i], err)
		}
	}
	if b.end() > to {
		return fmt.Errorf("shard: base ends at window %d, series has %d", b.end(), to)
	}
	return s.checkPartition(b, b.end())
}

// checkShape validates the O(shards) partition invariants of b: the
// container's boundaries rise strictly from 0 to count, and every held
// shard holds exactly its range's windows. A mapped open stops here —
// walking every position of a mapped multi-gigabyte index would defeat
// the cheap open — while checkPartition adds the full ownership scan.
// An open passes the series' window count: a saved index starts with
// no tail.
func (s *Index) checkShape(b *base, count int) error {
	if b.starts[0] != 0 || b.starts[s.total] != count {
		return fmt.Errorf("shard: ranges span [%d, %d), series has %d windows", b.starts[0], b.starts[s.total], count)
	}
	for i := 0; i < s.total; i++ {
		if b.starts[i] >= b.starts[i+1] {
			return fmt.Errorf("shard %d: empty or inverted range [%d, %d)", i, b.starts[i], b.starts[i+1])
		}
	}
	for i, f := range b.frozen {
		if lo, hi := b.starts[s.ids[i]], b.starts[s.ids[i]+1]; f.Len() != hi-lo {
			return fmt.Errorf("shard %d: holds %d windows, range [%d, %d) spans %d", s.ids[i], f.Len(), lo, hi, hi-lo)
		}
	}
	return nil
}

// checkPartition validates the partition invariants: the shape checks
// above plus the full ownership scan — every window position of a held
// shard's range owned exactly once, by that shard (it holds as many
// positions as its range has windows, all inside it, none twice).
func (s *Index) checkPartition(b *base, count int) error {
	if err := s.checkShape(b, count); err != nil {
		return err
	}
	for i, f := range b.frozen {
		lo, hi := b.starts[s.ids[i]], b.starts[s.ids[i]+1]
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
