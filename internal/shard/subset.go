package shard

// Subset serves an assigned slice of a saved sharded index's shards —
// the unit a distributed shard node hosts. OpenArenaShards opens only
// the assigned segments of a TSSH v4 region: the segment table gives
// every segment's byte length, so unassigned segments are skipped by
// pure offset arithmetic — their bytes are never read, validated, or
// viewed, and under a file mapping their pages are never faulted in.
// Opening N of P shards costs O(N segments), not O(file).

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
)

// Subset is a read-only view over an assigned subset of a saved sharded
// index's shards. It implements Backend; unlike Index it supports no
// insertion (a node's shards are exactly what the saved file froze).
type Subset struct {
	ext    *series.Extractor
	l      int
	total  int   // shard count of the whole container
	ids    []int // assigned global shard indices, ascending
	frozen []*core.Frozen
	starts []int // the container's full boundary table
	ex     *exec.Executor

	// units caches the (shard → subtrees) split; a Subset is immutable,
	// so racing recomputations are identical and whichever lands wins.
	units atomic.Pointer[[][]core.FrozenSubtree]
}

var _ Backend = (*Subset)(nil)

// OpenArenaShards opens the shards listed in assigned (global indices,
// any order, no duplicates) from a TSSH v4 stream occupying the whole
// arena. Assigned segments become zero-copy views into the region;
// unassigned segments are skipped via the segment table without
// touching their bytes. The caller owns ar and must keep it alive (and
// unclosed) for the subset's lifetime; ex nil selects the process-wide
// default executor.
func OpenArenaShards(ar *arena.Arena, ext *series.Extractor, ex *exec.Executor, assigned []int) (*Subset, error) {
	buf := ar.Bytes()
	h, err := readShardHeader(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		return nil, err
	}

	if len(assigned) == 0 {
		return nil, fmt.Errorf("shard: subset: no shards assigned")
	}
	ids := append([]int(nil), assigned...)
	sort.Ints(ids)
	for i, id := range ids {
		if id < 0 || id >= h.count {
			return nil, fmt.Errorf("shard: subset: shard %d out of range [0, %d)", id, h.count)
		}
		if i > 0 && id == ids[i-1] {
			return nil, fmt.Errorf("shard: subset: shard %d assigned twice", id)
		}
	}

	if ex == nil {
		ex = exec.Default()
	}
	s := &Subset{ext: ext, total: h.count, ids: ids,
		frozen: make([]*core.Frozen, len(ids)), starts: h.starts, ex: ex}

	off := headerLen(h.count)
	next := 0
	for i := 0; i < h.count && next < len(ids); i++ {
		if off > int64(len(buf)) {
			return nil, fmt.Errorf("shard: arena: segment %d starts at %d, region has %d bytes", i, off, len(buf))
		}
		if i != ids[next] {
			// Not ours: step over the segment by table length alone.
			off += h.segLens[i]
			continue
		}
		f, n, err := core.FrozenFromArena(ar, off, ext)
		if err != nil {
			return nil, fmt.Errorf("shard: mapping shard %d: %w", i, err)
		}
		if n != h.segLens[i] {
			return nil, fmt.Errorf("shard: arena: shard %d spans %d bytes, table says %d", i, n, h.segLens[i])
		}
		if next == 0 {
			s.l = f.L()
		} else if f.L() != s.l {
			return nil, fmt.Errorf("shard: shard %d has L=%d, shard %d has L=%d", i, f.L(), ids[0], s.l)
		}
		s.frozen[next] = f
		next++
		off += n
	}

	if err := s.checkShape(); err != nil {
		return nil, fmt.Errorf("shard: subset: %w", err)
	}
	return s, nil
}

// checkShape validates the O(assigned) partition invariants: shards
// hold exactly their recorded range widths and ranges are ordered; the
// subset total never exceeds the series' window count.
func (s *Subset) checkShape() error {
	count := series.NumSubsequences(s.ext.Len(), s.l)
	total := 0
	for _, f := range s.frozen {
		total += f.Len()
	}
	if total > count {
		return fmt.Errorf("assigned shards hold %d windows, series has %d", total, count)
	}
	if len(s.starts) != s.total+1 {
		return fmt.Errorf("%d boundaries for %d shards", len(s.starts), s.total)
	}
	if s.starts[0] != 0 || s.starts[s.total] != count {
		return fmt.Errorf("boundaries [%d, %d] do not frame %d windows", s.starts[0], s.starts[s.total], count)
	}
	for j, id := range s.ids {
		lo, hi := s.starts[id], s.starts[id+1]
		if lo >= hi {
			return fmt.Errorf("shard %d: empty or inverted range [%d, %d)", id, lo, hi)
		}
		if got, want := s.frozen[j].Len(), hi-lo; got != want {
			return fmt.Errorf("shard %d: holds %d windows, range [%d, %d) spans %d", id, got, lo, hi, want)
		}
	}
	return nil
}

// unitFrontiers mirrors Index.unitFrontiers with one deliberate twist:
// the over-provisioning target divides by the CONTAINER's shard count,
// not the assigned count. Per-shard frontiers (and therefore the
// traversal counters a node reports, which never visit nodes above a
// unit's subtree root) then match what the single-process fan-out over
// the whole index would produce on the same machine — whatever slice of
// the shards this node happens to serve.
func (s *Subset) unitFrontiers() [][]core.FrozenSubtree {
	if u := s.units.Load(); u != nil {
		return *u
	}
	p := len(s.frozen)
	w := s.ex.Workers()
	if g := runtime.GOMAXPROCS(0); g > w {
		w = g
	}
	per := 1
	if t := 4 * w; t > s.total {
		per = (t + s.total - 1) / s.total
	}
	fr := make([][]core.FrozenSubtree, p)
	for i, f := range s.frozen {
		fr[i] = f.Frontier(per)
	}
	s.units.Store(&fr)
	return fr
}

// Search implements Backend: all twins at eps among this subset's
// windows, sorted by start.
func (s *Subset) Search(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := s.SearchStats(ctx, q, eps)
	return ms, err
}

// SearchStats implements Backend. The whole-tree fast path applies
// only when this subset IS the whole container; see searchStatsUnits.
func (s *Subset) SearchStats(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	return searchStatsUnits(ctx, s.ex, s.frozen, s.unitFrontiers, q, eps, s.total == 1)
}

// SearchTopK implements Backend: the k nearest among this subset's
// windows, pruning against bound (see Backend for the seeding
// contract).
func (s *Subset) SearchTopK(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	return searchTopKUnits(ctx, s.ex, s.frozen, s.unitFrontiers, q, k, bound)
}

// SearchPrefixTree implements Backend: prefix twins among this subset's
// indexed starts only — the tail windows belong to whoever coordinates.
func (s *Subset) SearchPrefixTree(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	return searchPrefixUnits(ctx, s.ex, s.frozen, s.unitFrontiers, q, eps)
}

// SearchApprox implements Backend: at most leafBudget leaf probes
// shared across this subset's shards.
func (s *Subset) SearchApprox(ctx context.Context, q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats, error) {
	return searchApproxUnits(ctx, s.ex, s.frozen, q, eps, leafBudget)
}

// Windows implements Backend.
func (s *Subset) Windows() int {
	total := 0
	for _, f := range s.frozen {
		total += f.Len()
	}
	return total
}

// ShardIDs implements Backend.
func (s *Subset) ShardIDs() []int { return append([]int(nil), s.ids...) }

// TotalShards returns the shard count of the whole container the subset
// was opened from.
func (s *Subset) TotalShards() int { return s.total }

// L returns the indexed subsequence length.
func (s *Subset) L() int { return s.l }

// Extractor exposes the extractor the subset verifies against.
func (s *Subset) Extractor() *series.Extractor { return s.ext }

// MemoryBytes implements Backend: heap-resident bytes of the assigned
// arenas only.
func (s *Subset) MemoryBytes() int {
	total := 0
	for _, f := range s.frozen {
		total += f.MemoryBytes()
	}
	return total
}

// MappedBytes implements Backend: the file-mapped footprint of the
// assigned shard arrays alone. Unassigned segments contribute nothing —
// their pages are never viewed or touched — so a selective open of a
// mapped index always reports less than the file size.
func (s *Subset) MappedBytes() int {
	total := 0
	for _, f := range s.frozen {
		total += f.MappedBytes()
	}
	return total
}
