package core

import (
	"math"

	"twinsearch/internal/mbts"
	"twinsearch/internal/mbts/kernel"
)

// splitLeaf divides an overflowing leaf into two (§5.2): the two
// subsequences with the largest pairwise Chebyshev distance seed the new
// leaves, and every remaining subsequence joins the side whose MBTS
// grows the least (with R-tree-style forced assignment so both sides
// reach MinCap).
func (ix *Index) splitLeaf(n *node) (*node, *node) {
	k, l := len(n.positions), ix.cfg.L
	wins := ix.splitWindows(n.positions)
	si, sj := farthestPair(wins, l, ix.splitDists)

	a := &node{bounds: mbts.FromSequence(wins[si*l : (si+1)*l]), leaf: true,
		positions: append(make([]int32, 0, k), n.positions[si])}
	b := &node{bounds: mbts.FromSequence(wins[sj*l : (sj+1)*l]), leaf: true,
		positions: append(make([]int32, 0, k), n.positions[sj])}

	left := k - 2 // windows still to assign
	for i, p := range n.positions {
		if i == si || i == sj {
			continue
		}
		w := wins[i*l : (i+1)*l]
		switch {
		case ix.cfg.MinCap-len(a.positions) >= left:
			assignLeaf(a, w, p)
		case ix.cfg.MinCap-len(b.positions) >= left:
			assignLeaf(b, w, p)
		default:
			if pickSide(a.bounds.WidthIncreaseSequence(w), b.bounds.WidthIncreaseSequence(w),
				a.bounds, b.bounds, len(a.positions), len(b.positions)) {
				assignLeaf(a, w, p)
			} else {
				assignLeaf(b, w, p)
			}
		}
		left--
	}
	return a, b
}

// splitWindows extracts the windows at positions into the split
// scratch, window i at row [i*L, (i+1)*L) — the flat run the seed sweep
// streams and the assignment loop slices. The scratch grows to the
// largest leaf seen (MaxCap+1 windows, always) and is then reused.
func (ix *Index) splitWindows(positions []int32) []float64 {
	k, l := len(positions), ix.cfg.L
	if len(ix.splitWins) < k*l {
		ix.splitWins = make([]float64, k*l)
		ix.splitDists = make([]float64, k)
	}
	wins := ix.splitWins[:k*l]
	for i, p := range positions {
		row := wins[i*l : (i+1)*l]
		// Per-subsequence normalization writes straight into the row;
		// the other modes return a view of the series to copy in.
		if w := ix.ext.Extract(int(p), l, row); &w[0] != &row[0] {
			copy(row, w)
		}
	}
	return wins
}

// farthestPair returns the first pair (i < j, in (i, j) order) of the
// L-length rows of wins at the largest Chebyshev distance. Row i is
// scored against all later rows in one kernel sweep: Eq. 2 with both
// bounds set to a window is the Chebyshev distance to it, bit for bit
// (kernel.FuzzCandidateDist), and a +Inf limit never abandons. dists
// is scratch for one sweep, at least rows−1 long.
func farthestPair(wins []float64, l int, dists []float64) (si, sj int) {
	k := len(wins) / l
	si, sj = 0, 1
	maxD := -1.0
	for i := 0; i < k-1; i++ {
		rest, d := wins[(i+1)*l:], dists[:k-1-i]
		kernel.SweepAbandonFlat(rest, rest, l, wins[i*l:(i+1)*l], math.Inf(1), d)
		for j, dj := range d {
			if dj > maxD {
				maxD, si, sj = dj, i, i+1+j
			}
		}
	}
	return si, sj
}

func assignLeaf(n *node, w []float64, p int32) {
	n.bounds.ExpandToSequence(w)
	n.positions = append(n.positions, p)
}

// splitInternal divides an overflowing internal node (§5.2): seeds are
// the two children whose MBTS are farthest apart under Eq. 3; remaining
// children join the side whose merged MBTS grows the least.
func (ix *Index) splitInternal(n *node) (*node, *node) {
	k := len(n.children)
	si, sj := 0, 1
	var maxD float64 = -1
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if d := n.children[i].bounds.DistMBTS(n.children[j].bounds); d > maxD {
				maxD, si, sj = d, i, j
			}
		}
	}

	a := &node{bounds: n.children[si].bounds.Clone(),
		children: append(make([]*node, 0, k), n.children[si])}
	b := &node{bounds: n.children[sj].bounds.Clone(),
		children: append(make([]*node, 0, k), n.children[sj])}

	remaining := make([]*node, 0, k-2)
	for i, c := range n.children {
		if i != si && i != sj {
			remaining = append(remaining, c)
		}
	}
	for idx, c := range remaining {
		left := len(remaining) - idx
		switch {
		case ix.cfg.MinCap-len(a.children) >= left:
			assignInternal(a, c)
		case ix.cfg.MinCap-len(b.children) >= left:
			assignInternal(b, c)
		default:
			if pickSide(a.bounds.WidthIncreaseMBTS(c.bounds), b.bounds.WidthIncreaseMBTS(c.bounds),
				a.bounds, b.bounds, len(a.children), len(b.children)) {
				assignInternal(a, c)
			} else {
				assignInternal(b, c)
			}
		}
	}
	return a, b
}

func assignInternal(n *node, c *node) {
	n.bounds.ExpandToMBTS(c.bounds)
	n.children = append(n.children, c)
}

// pickSide reports whether side A should take the entry: least width
// increase, then tighter current MBTS, then fewer entries.
func pickSide(incA, incB float64, bA, bB *mbts.MBTS, nA, nB int) bool {
	if incA != incB {
		return incA < incB
	}
	wA, wB := bA.Width(), bB.Width()
	if wA != wB {
		return wA < wB
	}
	return nA <= nB
}
