package core

import (
	"fmt"
	"sort"

	"twinsearch/internal/mbts"
	"twinsearch/internal/series"
)

// BuildBulk constructs a TS-Index bottom-up instead of by repeated
// insertion — an extension in the spirit of iSAX 2.0's bulk loading,
// which the paper lists among the techniques its baselines employ but
// does not define for TS-Index itself.
//
// Windows are ordered by mean value (twins have means within ε of each
// other, so mean-sorted neighbours are likely co-members of tight
// MBTS), packed into full leaves, and parent levels are packed over the
// resulting node sequence until one root remains. The resulting tree
// satisfies exactly the invariants of the insertion build; the ablation
// benchmark (BenchmarkAblationBulkVsInsert) compares construction time
// and query speed of the two.
func BuildBulk(ext *series.Extractor, cfg Config) (*Index, error) {
	count := series.NumSubsequences(ext.Len(), cfg.L)
	return BuildBulkRange(ext, cfg, 0, count)
}

// BuildBulkRange bulk-loads a TS-Index over only the windows starting in
// [lo, hi) — the bulk counterpart of BuildRange, used by internal/shard
// to build each shard bottom-up.
func BuildBulkRange(ext *series.Extractor, cfg Config, lo, hi int) (*Index, error) {
	ix, err := NewEmpty(ext, cfg)
	if err != nil {
		return nil, err
	}
	cfg = ix.cfg // NewEmpty validated and filled in the defaults
	total := series.NumSubsequences(ext.Len(), cfg.L)
	if total == 0 {
		return nil, fmt.Errorf("core: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	if lo < 0 || hi > total || lo >= hi {
		return nil, fmt.Errorf("core: position range [%d, %d) invalid for %d windows", lo, hi, total)
	}
	count := hi - lo

	// Order windows by mean. Per-subsequence normalization forces every
	// mean to zero; fall back to ordering by the first normalized value,
	// which is equally cheap and still groups look-alike windows.
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	keys := make([]float64, count)
	if ext.Mode() == series.NormPerSubsequence {
		buf := make([]float64, cfg.L)
		for i := range keys {
			keys[i] = ext.Extract(lo+i, cfg.L, buf)[0]
		}
	} else {
		rolling := series.NewRolling(ext.Data())
		for i := range keys {
			keys[i] = rolling.Mean(lo+i, cfg.L)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })

	// Pack leaves, then parent levels until a single root remains. Each
	// level's bounds start as the rows of one block, node j's at row j,
	// and move into the parents' blocks as the next level adopts them.
	groups := packGroups(count, cfg.MaxCap)
	level := make([]*node, 0, len(groups))
	rows := mbts.New(len(groups) * cfg.L)
	at := 0
	for j, g := range groups {
		leaf := &node{bounds: rows.Row(j, cfg.L), leaf: true, positions: make([]int32, g)}
		for k, oi := range idx[at : at+g] {
			leaf.positions[k] = int32(lo + oi)
		}
		ix.enclose(leaf)
		level = append(level, leaf)
		at += g
	}
	ix.size = count
	ix.height = 1

	for len(level) > 1 {
		groups := packGroups(len(level), cfg.MaxCap)
		next := make([]*node, 0, len(groups))
		rows := mbts.New(len(groups) * cfg.L)
		at := 0
		for j, g := range groups {
			parent := ix.newInternal(rows.Row(j, cfg.L))
			for _, c := range level[at : at+g] {
				ix.adopt(parent, c)
			}
			next = append(next, parent)
			at += g
		}
		level = next
		ix.height++
	}
	ix.seat(level[0])
	return ix, nil
}

// packGroups splits count items into contiguous groups of at most max
// items each, sized as evenly as possible; with max ≥ 2·MinCap−1 every
// group of a multi-group packing holds ≥ ⌈max/2⌉ ≥ MinCap items.
func packGroups(count, max int) []int {
	g := (count + max - 1) / max
	base := count / g
	extra := count % g
	out := make([]int, g)
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}
