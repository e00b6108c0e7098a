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
// leaves stay on one level. A node holds its children's bounds as the
// rows of one block, so the descent scores them in one kernel sweep,
// abandoned at the distance of the child the node chose last, and
// leaves a chosen child that already encloses the window alone; a
// leaf split copies its windows once into a flat per-build scratch and
// finds the seeds from the windows' envelope, an internal split scores
// only the child pairs the group's envelope cannot rule out (split.go).
//
// Build and BuildRange return the flat Frozen arena, the one form that
// is searched (§5.3, Algorithm 1 — see Frozen.SearchStats and
// frozen.go) and checked (Frozen.CheckInvariants). The insertion tree
// is the private builder: it exists only inside a build, whose last
// step compiles it into the arena (freeze).
package core

import (
	"fmt"

	"twinsearch/internal/mbts"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// Paper defaults (§6.1): "minimum and maximum node capacity in TS-Index
// are set to µc = 10 and Mc = 30".
const (
	DefaultMinCap = 10
	DefaultMaxCap = 30
)

// maxNodeCap bounds MaxCap. An internal node of the builder's tree holds
// up to MaxCap+1 rows of child bounds, so this caps what one node costs,
// also when MaxCap comes from a saved header.
const maxNodeCap = 1 << 10

// Config parameterizes index construction.
type Config struct {
	// L is the indexed subsequence length.
	L int
	// MinCap (µc) and MaxCap (Mc) bound node occupancy. Defaults apply
	// when 0. MaxCap must be ≥ 2·MinCap−1 so that a split can always
	// satisfy the minimum on both sides, and at most 1024.
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
	if c.MaxCap > maxNodeCap {
		return fmt.Errorf("core: MaxCap %d exceeds %d", c.MaxCap, maxNodeCap)
	}
	return nil
}

// builder is a TS-Index under construction by insertion.
type builder struct {
	ext    *series.Extractor
	cfg    Config
	root   *node
	top    mbts.MBTS // the root's bounds at row 0; row 1 bounds a split's second half until it is adopted
	height int       // levels from root to leaves; 1 when the root is a leaf
	size   int

	winBuf []float64    // reusable insertion window
	split  splitScratch // node-split and descent working memory (split.go)
	spare  *node        // the last internal node split, its block free for newInternal
}

// node is a tree node. Its bounds are a row of the block its parent
// holds for all of its children — the frozen arena's layout at full
// width — so the descent scores siblings in one sweep (chooseChild).
// Moving a node to another parent moves its row (adopt); the root's row
// is builder.top.
type node struct {
	bounds    mbts.MBTS // a view of this node's row in its parent's block
	rows      mbts.MBTS // internal: child i's bounds at row i
	children  []*node   // internal nodes
	positions []int32   // leaves
	hint      int       // internal: the child chooseChild picked last
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
// extractor's series by sequential insertion (§5.2), frozen.
func Build(ext *series.Extractor, cfg Config) (*Frozen, error) {
	count := series.NumSubsequences(ext.Len(), cfg.L)
	return BuildRange(ext, cfg, 0, count)
}

// BuildRange constructs a TS-Index over only the windows starting in
// [lo, hi) by sequential insertion, frozen — the per-shard build
// primitive used by internal/shard, where each shard owns one
// contiguous slice of the position space (the data-partitioning scheme
// of ParIS/MESSI applied to TS-Index).
func BuildRange(ext *series.Extractor, cfg Config, lo, hi int) (*Frozen, error) {
	ix, err := newBuilder(ext, cfg)
	if err != nil {
		return nil, err
	}
	count := series.NumSubsequences(ext.Len(), ix.cfg.L)
	if lo < 0 || hi > count || lo >= hi {
		return nil, fmt.Errorf("core: position range [%d, %d) invalid for %d windows", lo, hi, count)
	}
	for p := lo; p < hi; p++ {
		ix.add(p)
	}
	return ix.freeze(), nil
}

// newBuilder returns a builder with no entries.
func newBuilder(ext *series.Extractor, cfg Config) (*builder, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ext.Len() < cfg.L {
		return nil, fmt.Errorf("core: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	return &builder{ext: ext, cfg: cfg, top: mbts.New(2 * cfg.L), winBuf: make([]float64, cfg.L)}, nil
}

// add inserts the window starting at position p.
func (ix *builder) add(p int) {
	w := ix.ext.Extract(p, ix.cfg.L, ix.winBuf)
	if ix.root == nil {
		ix.root = &node{bounds: ix.top.Row(0, ix.cfg.L), leaf: true, positions: []int32{int32(p)}}
		ix.root.bounds.SetTo(w)
		ix.height, ix.size = 1, 1
		return
	}
	ix.root.bounds.ExpandToSequence(w)
	a, b := ix.insert(ix.root, w, int32(p))
	ix.size++
	if a != nil {
		// Root split: a new root adopts the two halves and the tree
		// grows by one level (paper Fig. 3b).
		root := ix.newInternal(ix.top.Row(0, ix.cfg.L))
		ix.adopt(root, a)
		ix.adopt(root, b)
		ix.root = root
		ix.height++
	}
}

// insert descends into n, whose bounds already enclose w, expanding the
// chosen child's bounds on the way. When n overflows and splits it
// returns the two replacement nodes, bounded at n's row and at row 1 of
// builder.top; otherwise (nil, nil).
func (ix *builder) insert(n *node, w []float64, p int32) (*node, *node) {
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
	// The first half sits at best's row (n.hint, which chooseChild set);
	// the second moves into the next free one, inside n's bounds already.
	n.children[n.hint] = a
	ix.adopt(n, b)
	if len(n.children) > ix.cfg.MaxCap {
		return ix.splitInternal(n)
	}
	return nil, nil
}

// newInternal returns a childless internal node bounded at the row
// bounds, its block sized for the MaxCap+1 children it holds at most:
// the last split node's, when there is one, as it stands — no row past
// a node's child count is read before adopt writes it.
func (ix *builder) newInternal(bounds mbts.MBTS) *node {
	if n := ix.spare; n != nil {
		ix.spare = nil
		*n = node{bounds: bounds, rows: n.rows, children: n.children[:0]}
		return n
	}
	c := ix.cfg.MaxCap + 1
	return &node{bounds: bounds, rows: mbts.New(c * ix.cfg.L), children: make([]*node, 0, c)}
}

// adopt appends c to n's children, moving c's bounds into n's next row
// (newInternal sized the block for every child n can hold), and grows
// n's bounds to enclose them (the first child sets them).
func (ix *builder) adopt(n, c *node) {
	k, l := len(n.children), ix.cfg.L
	row := n.rows.Row(k, l)
	row.CopyFrom(c.bounds)
	c.bounds = row
	n.children = append(n.children, c)
	if k == 0 {
		n.bounds.CopyFrom(row)
	} else {
		n.bounds.ExpandToMBTS(row)
	}
}

// chooseChild selects the child whose MBTS has the smallest Eq. 2
// distance from w — the first such child, or, when several tie above
// 0, the first of least width increase (README, "Index construction")
// — and returns it with that distance, leaving its index in n.hint.
//
// Any child's distance bounds the minimum from above, and the child
// chosen last is a good guess at it, so that child is scored first and
// its distance is the limit of one sweep over the rest of the block:
// every row beyond it abandons within its first lanes, and every child
// at the minimum survives. At a limit of 0 only the rows before the
// hint are swept, the first child at 0 being final — a later one ties
// at 0 and its width increase, like the incumbent's, is exactly 0.
func (ix *builder) chooseChild(n *node, w []float64) (*node, float64) {
	k, l := len(n.children), len(w)
	h := n.hint
	if h < 0 || h >= k {
		h = 0
	}
	hr := n.rows.Row(h, l)
	limit := kernel.DistFlat(hr.Upper, hr.Lower, w)
	ix.split.grow(k, l)
	dists := ix.split.dists[:k]
	kernel.SweepAbandonFlat(n.rows.Upper, n.rows.Lower, l, w, limit, dists[:h])
	dists[h] = limit
	if limit > 0 {
		at := (h + 1) * l
		kernel.SweepAbandonFlat(n.rows.Upper[at:], n.rows.Lower[at:], l, w, limit, dists[h+1:])
	} else {
		dists = dists[:h+1]
	}
	best := -1
	for i, d := range dists {
		switch {
		case d < 0: // abandoned: farther than the hint
		case best < 0 || d < dists[best]:
			best = i
		case d == dists[best] && d > 0:
			c, b := n.rows.Row(i, l), n.rows.Row(best, l)
			if kernel.CompareWidthIncrease(c.Upper, c.Lower, b.Upper, b.Lower, w) < 0 {
				best = i
			}
		}
	}
	n.hint = best
	return n.children[best], dists[best]
}
