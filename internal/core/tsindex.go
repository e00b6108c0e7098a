// Package core implements TS-Index, the paper's contribution (§5): a
// height-balanced tree over all ℓ-length subsequences of a time series,
// in which every node carries a Minimum Bounding Time Series (MBTS)
// enclosing everything indexed beneath it and leaves store the start
// positions of their subsequences.
//
// Construction (§5.2) inserts subsequences top-down, descending at each
// level into the child whose MBTS is closest under the paper's Eq. 2
// distance; overflowing nodes split with farthest-pair seeds and
// minimum-expansion assignment, and splits propagate upward so all
// leaves stay on one level. The descent stops comparing children at the
// first one that already encloses the window (distance 0 cannot be
// beaten and wins every tie) and leaves that child's bounds alone; a
// leaf split copies its windows once into a flat per-Index scratch and
// finds the seeds from the windows' envelope, an internal split scores
// only the child pairs the group's envelope cannot rule out (split.go).
//
// Index, the pointer tree, is the builder: it is constructed, appended
// to, checked and persisted, and compiled by Freeze into the flat
// Frozen arena, which is the one form that is searched (§5.3,
// Algorithm 1 — see Frozen.SearchStats and frozen.go).
package core

import (
	"fmt"
	"math"

	"twinsearch/internal/mbts"
	"twinsearch/internal/series"
)

// Paper defaults (§6.1): "minimum and maximum node capacity in TS-Index
// are set to µc = 10 and Mc = 30".
const (
	DefaultMinCap = 10
	DefaultMaxCap = 30
)

// Config parameterizes index construction.
type Config struct {
	// L is the indexed subsequence length.
	L int
	// MinCap (µc) and MaxCap (Mc) bound node occupancy. Defaults apply
	// when 0. MaxCap must be ≥ 2·MinCap−1 so that splits and bulk
	// loading can always satisfy the minimum on both sides.
	MinCap, MaxCap int
}

func (c *Config) fill() error {
	if c.L <= 0 {
		return fmt.Errorf("core: invalid subsequence length %d", c.L)
	}
	if c.MinCap == 0 {
		c.MinCap = DefaultMinCap
	}
	if c.MaxCap == 0 {
		c.MaxCap = DefaultMaxCap
	}
	if c.MinCap < 1 {
		return fmt.Errorf("core: MinCap %d must be ≥ 1", c.MinCap)
	}
	if c.MaxCap < 2*c.MinCap-1 {
		return fmt.Errorf("core: MaxCap %d must be ≥ 2·MinCap−1 = %d", c.MaxCap, 2*c.MinCap-1)
	}
	return nil
}

// Index is a built TS-Index.
type Index struct {
	ext    *series.Extractor
	cfg    Config
	root   *node
	height int // levels from root to leaves; 1 when the root is a leaf
	size   int

	winBuf []float64    // reusable insertion window
	split  splitScratch // node-split working memory (split.go)
}

type node struct {
	bounds    *mbts.MBTS
	children  []*node // internal nodes
	positions []int32 // leaves
	leaf      bool
}

// Stats describes the work a search performed. Abandons counts the
// candidate windows whose point-by-point verification was cut short by
// early abandoning (Chebyshev running max exceeded ε before the window
// ended) — i.e. Candidates minus the windows verified to the end; since
// every verified-to-the-end candidate under L∞ is a match, Abandons =
// Candidates − Results for the range paths. It is tracked explicitly so
// the trace layer can report kernel-level abandoning per shard, and so
// the differential suites pin it identical across single/sharded/
// cluster forms.
type Stats struct {
	NodesVisited  int
	NodesPruned   int
	LeavesReached int
	Candidates    int
	Abandons      int
	Results       int
}

// Build constructs a TS-Index over all ℓ-length windows of the
// extractor's series by sequential insertion (§5.2).
func Build(ext *series.Extractor, cfg Config) (*Index, error) {
	count := series.NumSubsequences(ext.Len(), cfg.L)
	return BuildRange(ext, cfg, 0, count)
}

// BuildRange constructs a TS-Index over only the windows starting in
// [lo, hi) by sequential insertion — the per-shard build primitive used
// by internal/shard, where each shard owns one contiguous slice of the
// position space (the data-partitioning scheme of ParIS/MESSI applied
// to TS-Index).
func BuildRange(ext *series.Extractor, cfg Config, lo, hi int) (*Index, error) {
	ix, err := NewEmpty(ext, cfg)
	if err != nil {
		return nil, err
	}
	count := series.NumSubsequences(ext.Len(), ix.cfg.L)
	if count == 0 {
		return nil, fmt.Errorf("core: series length %d shorter than subsequence length %d", ext.Len(), ix.cfg.L)
	}
	if lo < 0 || hi > count || lo >= hi {
		return nil, fmt.Errorf("core: position range [%d, %d) invalid for %d windows", lo, hi, count)
	}
	for p := lo; p < hi; p++ {
		ix.Insert(p)
	}
	return ix, nil
}

// NewEmpty returns an index with no entries; callers insert positions
// explicitly (used by tests and by incremental ingestion).
func NewEmpty(ext *series.Extractor, cfg Config) (*Index, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ext.Len() < cfg.L {
		return nil, fmt.Errorf("core: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	return &Index{ext: ext, cfg: cfg, winBuf: make([]float64, cfg.L)}, nil
}

// Insert adds the window starting at position p to the index.
func (ix *Index) Insert(p int) {
	w := ix.ext.Extract(p, ix.cfg.L, ix.winBuf)
	if ix.root == nil {
		ix.root = &node{bounds: mbts.FromSequence(w), leaf: true, positions: []int32{int32(p)}}
		ix.height = 1
		ix.size = 1
		return
	}
	ix.root.bounds.ExpandToSequence(w)
	a, b := ix.insert(ix.root, w, int32(p))
	ix.size++
	if a != nil {
		// Root split: a new root adopts the two halves and the tree
		// grows by one level (paper Fig. 3b).
		root := &node{bounds: a.bounds.Clone(), children: []*node{a, b}}
		root.bounds.ExpandToMBTS(b.bounds)
		ix.root = root
		ix.height++
	}
}

// insert descends into n, whose bounds already enclose w, expanding the
// chosen child's bounds on the way, and returns the two replacement
// nodes when n overflowed and split, or (nil, nil).
func (ix *Index) insert(n *node, w []float64, p int32) (*node, *node) {
	if n.leaf {
		n.positions = append(n.positions, p)
		if len(n.positions) > ix.cfg.MaxCap {
			return ix.splitLeaf(n)
		}
		return nil, nil
	}

	best, dist := ix.chooseChild(n, w)
	if dist > 0 {
		// At distance 0 no lane of w lies outside best's bounds, which
		// is exactly when expanding would change nothing.
		best.bounds.ExpandToSequence(w)
	}
	a, b := ix.insert(best, w, p)
	if a == nil {
		return nil, nil
	}
	// Replace the split child with its two halves.
	for i, c := range n.children {
		if c == best {
			n.children[i] = a
			break
		}
	}
	n.children = append(n.children, b)
	if len(n.children) > ix.cfg.MaxCap {
		return ix.splitInternal(n)
	}
	return nil, nil
}

// chooseChild selects the child whose MBTS has the smallest Eq. 2
// distance from w, breaking ties by least width increase (DESIGN.md §5),
// and returns it with that distance. The first child at distance 0 is
// final: a later child is either farther or ties at 0, and a tie at 0
// compares two width increases that are both exactly 0, which the
// incumbent wins.
func (ix *Index) chooseChild(n *node, w []float64) (*node, float64) {
	var best *node
	bestDist := math.Inf(1)
	bestInc := -1.0 // lazily computed on the first tie
	for _, c := range n.children {
		d, ok := c.bounds.DistSequenceAbandon(w, bestDist)
		if !ok {
			continue
		}
		switch {
		case best == nil || d < bestDist:
			if d == 0 {
				return c, 0
			}
			best, bestDist, bestInc = c, d, -1
		case d == bestDist:
			if bestInc < 0 {
				bestInc = best.bounds.WidthIncreaseSequence(w)
			}
			if inc := c.bounds.WidthIncreaseSequence(w); inc < bestInc {
				best, bestInc = c, inc
			}
		}
	}
	return best, bestDist
}

// Len returns the number of indexed windows.
func (ix *Index) Len() int { return ix.size }

// Height returns the number of levels (1 = the root is a leaf).
func (ix *Index) Height() int { return ix.height }

// L returns the indexed subsequence length.
func (ix *Index) L() int { return ix.cfg.L }

// Extractor exposes the extractor the index was built over.
func (ix *Index) Extractor() *series.Extractor { return ix.ext }

// NodeCount returns the total number of tree nodes.
func (ix *Index) NodeCount() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n == nil {
			return 0
		}
		total := 1
		for _, c := range n.children {
			total += walk(c)
		}
		return total
	}
	return walk(ix.root)
}

// MemoryBytes estimates the heap footprint of the index structure: per
// node, the struct, the MBTS (two ℓ-length bounds — the reason Fig. 8a
// shows TS-Index 2–3× larger than iSAX), and leaf position payloads.
func (ix *Index) MemoryBytes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n == nil {
			return 0
		}
		total := 80 + n.bounds.MemoryBytes()
		if n.leaf {
			total += 4 * len(n.positions)
		} else {
			total += 8 * len(n.children)
			for _, c := range n.children {
				total += walk(c)
			}
		}
		return total
	}
	return walk(ix.root)
}
