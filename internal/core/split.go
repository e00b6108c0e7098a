package core

import (
	"cmp"
	"math"

	"twinsearch/internal/mbts"
	"twinsearch/internal/mbts/kernel"
)

// splitScratch is the working memory of node splits and of the descent,
// sized by the first split and reused by every later one (a split node
// always holds MaxCap+1 entries). Transient of construction — not part
// of MemoryBytes.
type splitScratch struct {
	wins   []float64 // a leaf's windows as consecutive L-length rows
	hi, lo []float64 // an L-lane envelope
	reach  []float64 // per child: the most it can be from any sibling
	dists  []float64 // per child: its distance from the window (chooseChild)
	lanes  []int     // the envelope's widest lanes
	rows   []int     // candidate rows
}

// grow sizes the scratch for k entries of l lanes.
func (s *splitScratch) grow(k, l int) {
	if len(s.wins) < k*l || len(s.dists) < k {
		s.wins = make([]float64, k*l)
		s.hi, s.lo = make([]float64, l), make([]float64, l)
		s.reach, s.dists = make([]float64, k), make([]float64, k)
		s.lanes, s.rows = make([]int, 0, l), make([]int, 0, k)
	}
}

// splitLeaf divides an overflowing leaf into two (§5.2), bounded at the
// leaf's row and at row 1 of builder.top: the two subsequences with the
// largest pairwise Chebyshev distance seed the new leaves, and every
// remaining subsequence joins the side whose MBTS grows the least (with
// R-tree-style forced assignment so both sides reach MinCap).
func (ix *builder) splitLeaf(n *node) (*node, *node) {
	k, l := len(n.positions), ix.cfg.L
	wins := ix.splitWindows(n.positions)
	si, sj := ix.farthestPair(wins)

	a := &node{bounds: n.bounds, leaf: true, positions: append(make([]int32, 0, k), n.positions[si])}
	b := &node{bounds: ix.top.Row(1, l), leaf: true, positions: append(make([]int32, 0, k), n.positions[sj])}
	a.bounds.SetTo(wins[si*l : (si+1)*l])
	b.bounds.SetTo(wins[sj*l : (sj+1)*l])

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
			c := kernel.CompareWidthIncrease(a.bounds.Upper, a.bounds.Lower, b.bounds.Upper, b.bounds.Lower, w)
			if pickSide(c, a.bounds, b.bounds, len(a.positions), len(b.positions)) {
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
// scratch, window i at row [i*L, (i+1)*L) — the flat run the seed search
// scans and the assignment loop slices.
func (ix *builder) splitWindows(positions []int32) []float64 {
	k, l := len(positions), ix.cfg.L
	ix.split.grow(k, l)
	wins := ix.split.wins[:k*l]
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
// L-length rows of wins at the largest Chebyshev distance — the pair an
// all-pairs scan keeping the first strict maximum returns — from one
// envelope pass instead of that scan.
//
// IEEE subtraction is monotone in each operand, so on lane t no pair is
// farther apart than fl(hi[t] − lo[t]) of the rows' envelope, and the
// two rows holding hi[t] and lo[t] are exactly that far: the largest
// pair distance is maxD = max_t fl(hi[t] − lo[t]). A pair at maxD is
// there on a lane where fl(hi − lo) = maxD, by one row with
// fl(w − lo) = maxD and one with fl(hi − w) = maxD. Rounding can put a
// row there that is not the extreme, so every such row is a candidate,
// and the candidate pairs are scored with the exact distance in (i, j)
// order until one is at maxD. A NaN lane is 0 in every pair distance;
// the envelope, seeded at ∓Inf, skips it alike.
func (ix *builder) farthestPair(wins []float64) (si, sj int) {
	l := ix.cfg.L
	k := len(wins) / l
	hi, lo := ix.split.hi[:l], ix.split.lo[:l]
	for t := range hi {
		hi[t], lo[t] = math.Inf(-1), math.Inf(1)
	}
	for i := 0; i < k; i++ {
		kernel.Expand(hi, lo, wins[i*l:(i+1)*l])
	}
	maxD := 0.0
	for t := range hi {
		if d := hi[t] - lo[t]; d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		return 0, 1 // every pair is at distance 0
	}
	lanes := ix.split.lanes[:0]
	for t := range hi {
		if hi[t]-lo[t] == maxD {
			lanes = append(lanes, t)
		}
	}
	rows := ix.split.rows[:0]
	for i := 0; i < k; i++ {
		w := wins[i*l : (i+1)*l]
		for _, t := range lanes {
			if w[t]-lo[t] == maxD || hi[t]-w[t] == maxD {
				rows = append(rows, i)
				break
			}
		}
	}
	for a, i := range rows {
		for _, j := range rows[a+1:] {
			// Eq. 2 with both bounds set to row j is the Chebyshev
			// distance to it, bit for bit (kernel.FuzzCandidateDist).
			wj := wins[j*l : (j+1)*l]
			if kernel.DistFlat(wj, wj, wins[i*l:(i+1)*l]) == maxD {
				return i, j
			}
		}
	}
	panic("core: no leaf-split seed pair at the envelope's widest lane")
}

func assignLeaf(n *node, w []float64, p int32) {
	n.bounds.ExpandToSequence(w)
	n.positions = append(n.positions, p)
}

// splitInternal divides an overflowing internal node (§5.2), bounded at
// the node's row and at row 1 of builder.top: seeds are the two children
// whose MBTS are farthest apart under Eq. 3; remaining children join the
// side whose merged MBTS grows the least. n, every child moved out of
// its block, is left to the next newInternal.
func (ix *builder) splitInternal(n *node) (*node, *node) {
	si, sj := ix.farthestChildren(n.children)
	a, b := ix.newInternal(n.bounds), ix.newInternal(ix.top.Row(1, ix.cfg.L))
	ix.adopt(a, n.children[si])
	ix.adopt(b, n.children[sj])

	left := len(n.children) - 2 // children still to assign
	for i, c := range n.children {
		if i == si || i == sj {
			continue
		}
		switch {
		case ix.cfg.MinCap-len(a.children) >= left:
			ix.adopt(a, c)
		case ix.cfg.MinCap-len(b.children) >= left:
			ix.adopt(b, c)
		default:
			inc := cmp.Compare(a.bounds.WidthIncreaseMBTS(c.bounds), b.bounds.WidthIncreaseMBTS(c.bounds))
			if pickSide(inc, a.bounds, b.bounds, len(a.children), len(b.children)) {
				ix.adopt(a, c)
			} else {
				ix.adopt(b, c)
			}
		}
		left--
	}
	ix.spare = n
	return a, b
}

// farthestChildren returns the first pair (i < j, in (i, j) order) of
// children at the largest Eq. 3 distance — the pair an all-pairs scan
// keeping the first strict maximum returns — scoring only the pairs
// that could be it.
//
// Against the group's inner envelope, minUp[t] (the lowest upper bound)
// and maxLo[t] (the highest lower bound), child i's Eq. 3 gap to any
// sibling is at most
//
//	reach_i = max_t max(fl(lo_i[t] − minUp[t]), fl(maxLo[t] − up_i[t]), 0)
//
// by the monotonicity of IEEE subtraction (a NaN bound, which Eq. 3
// never selects, is skipped by both). A pair whose smaller reach is
// strictly below the scan's running maximum can neither beat it nor tie
// it, so it is skipped; the scan over the rest is the all-pairs scan,
// order and strict > included.
func (ix *builder) farthestChildren(children []*node) (si, sj int) {
	k, l := len(children), ix.cfg.L
	ix.split.grow(k, l)
	minUp, maxLo, reach := ix.split.hi[:l], ix.split.lo[:l], ix.split.reach[:k]
	for t := range minUp {
		minUp[t], maxLo[t] = math.Inf(1), math.Inf(-1)
	}
	for _, c := range children {
		up, lw := c.bounds.Upper[:l], c.bounds.Lower[:l]
		for t := range minUp {
			if up[t] < minUp[t] {
				minUp[t] = up[t]
			}
			if lw[t] > maxLo[t] {
				maxLo[t] = lw[t]
			}
		}
	}
	for i, c := range children {
		up, lw := c.bounds.Upper[:l], c.bounds.Lower[:l]
		r := 0.0
		for t := range minUp {
			if d := lw[t] - minUp[t]; d > r {
				r = d
			}
			if d := maxLo[t] - up[t]; d > r {
				r = d
			}
		}
		reach[i] = r
	}

	si, sj = 0, 1
	maxD := -1.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k && reach[i] >= maxD; j++ {
			if reach[j] < maxD {
				continue
			}
			if d := children[i].bounds.DistMBTS(children[j].bounds); d > maxD {
				maxD, si, sj = d, i, j
			}
		}
	}
	return si, sj
}

// pickSide reports whether side A should take the entry: least width
// increase — inc orders A's against B's, as cmp.Compare — then tighter
// current MBTS, then fewer entries.
func pickSide(inc int, bA, bB mbts.MBTS, nA, nB int) bool {
	if inc != 0 {
		return inc < 0
	}
	wA, wB := bA.Width(), bB.Width()
	if wA != wB {
		return wA < wB
	}
	return nA <= nB
}
