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

	// Pack leaves.
	buf := make([]float64, cfg.L)
	groups := packGroups(count, cfg.MaxCap)
	level := make([]*node, 0, len(groups))
	at := 0
	for _, g := range groups {
		leaf := &node{leaf: true, positions: make([]int32, g)}
		for j, oi := range idx[at : at+g] {
			leaf.positions[j] = int32(lo + oi)
		}
		leaf.bounds = mbts.FromSequence(ext.Extract(int(leaf.positions[0]), cfg.L, buf))
		for _, p := range leaf.positions[1:] {
			leaf.bounds.ExpandToSequence(ext.Extract(int(p), cfg.L, buf))
		}
		level = append(level, leaf)
		at += g
	}
	ix.size = count
	ix.height = 1

	// Pack parent levels until a single root remains.
	for len(level) > 1 {
		groups := packGroups(len(level), cfg.MaxCap)
		next := make([]*node, 0, len(groups))
		at := 0
		for _, g := range groups {
			parent := &node{children: make([]*node, g)}
			copy(parent.children, level[at:at+g])
			parent.bounds = parent.children[0].bounds.Clone()
			for _, c := range parent.children[1:] {
				parent.bounds.ExpandToMBTS(c.bounds)
			}
			next = append(next, parent)
			at += g
		}
		level = next
		ix.height++
	}
	ix.root = level[0]
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
