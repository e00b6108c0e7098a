package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

var allModes = []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence}

// chooseChildReference is chooseChild as PR 1 wrote it: every child is
// scored, and every tie — at distance 0 too — goes through the
// width-increase tie-break.
func chooseChildReference(n *node, w []float64) *node {
	var best *node
	bestDist := math.Inf(1)
	bestInc := -1.0
	for _, c := range n.children {
		d, ok := kernel.DistAbandonFlat(c.bounds.Upper, c.bounds.Lower, w, bestDist)
		if !ok {
			continue
		}
		switch {
		case best == nil || d < bestDist:
			best, bestDist, bestInc = c, d, -1
		case d == bestDist:
			if bestInc < 0 {
				bestInc = kernel.WidthIncreaseSequence(best.bounds.Upper, best.bounds.Lower, w)
			}
			if inc := kernel.WidthIncreaseSequence(c.bounds.Upper, c.bounds.Lower, w); inc < bestInc {
				best, bestInc = c, inc
			}
		}
	}
	return best
}

// gridWindow draws a window on a coarse integer grid, so equal
// distances and equal width increases are common rather than freak.
func gridWindow(rng *rand.Rand, l, levels int) []float64 {
	w := make([]float64, l)
	for i := range w {
		w[i] = float64(rng.Intn(levels))
	}
	return w
}

func TestChooseChildMatchesReference(t *testing.T) {
	ix := &builder{}
	var zeroTies, positiveTies, tieBreaksWon int
	check := func(n *node, w []float64) {
		t.Helper()
		want := chooseChildReference(n, w)
		got, dist := ix.chooseChild(n, w)
		if got != want {
			t.Fatalf("chooseChild picked a different child than the reference loop")
		}
		if d := distTo(got, w); d != dist {
			t.Fatalf("chooseChild returned distance %v, the child is at %v", dist, d)
		}
		// Tally the branches the inputs reach, on the reference's terms.
		zero, atBest := 0, 0
		for _, c := range n.children {
			switch distTo(c, w) {
			case 0:
				zero++
			case dist:
				atBest++
			}
		}
		if zero > 1 {
			zeroTies++
		}
		if dist > 0 && atBest > 1 {
			positiveTies++
			if got != firstAt(n, w, dist) {
				tieBreaksWon++
			}
		}
	}

	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		l := []int{1, 7, 33, 100}[trial%4]
		var bounds []mbts.MBTS
		for c := 2 + rng.Intn(8); c > 0; c-- {
			// Children enclosing 1–4 grid windows each overlap heavily.
			b := mbts.FromSequence(gridWindow(rng, l, 4))
			for extra := rng.Intn(4); extra > 0; extra-- {
				b.ExpandToSequence(gridWindow(rng, l, 4))
			}
			bounds = append(bounds, b)
		}
		if trial%3 == 0 {
			// A duplicated child ties with its original at every distance.
			bounds = append(bounds, bounds[rng.Intn(len(bounds))])
		}
		n := parentOf(bounds...)
		for q := 0; q < 20; q++ {
			check(n, gridWindow(rng, l, 4)) // mostly enclosed somewhere
			check(n, gridWindow(rng, l, 7)) // mostly outside everything
		}
	}
	if zeroTies == 0 || positiveTies == 0 || tieBreaksWon == 0 {
		t.Fatalf("inputs missed a branch: %d zero ties, %d positive ties, %d won by a later child",
			zeroTies, positiveTies, tieBreaksWon)
	}

	// A constant series: every child encloses every window.
	zero := mbts.FromSequence(make([]float64, 9))
	flat := parentOf(zero, zero, zero, zero, zero)
	check(flat, make([]float64, 9))

	// One child, enclosing and not.
	one := parentOf(mbts.FromSequence([]float64{1, 2, 3}))
	check(one, []float64{1, 2, 3})
	check(one, []float64{1, 5, 3})
}

// parentOf is an internal node whose block holds bounds as its
// children's rows, in order, each child's bounds a view of its row.
func parentOf(bounds ...mbts.MBTS) *node {
	l := bounds[0].Len()
	n := &node{rows: mbts.New(len(bounds) * l)}
	for i, b := range bounds {
		row := n.rows.Row(i, l)
		row.CopyFrom(b)
		n.children = append(n.children, &node{bounds: row})
	}
	return n
}

// distTo is the Eq. 2 distance from w to n's bounds.
func distTo(n *node, w []float64) float64 {
	return kernel.DistFlat(n.bounds.Upper, n.bounds.Lower, w)
}

// firstAt is the first child of n at distance dist from w.
func firstAt(n *node, w []float64, dist float64) *node {
	for _, c := range n.children {
		if distTo(c, w) == dist {
			return c
		}
	}
	return nil
}

func TestSplitSeedsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := gridWindow(rng, 600, 5)
	var maxTies int
	for _, mode := range allModes {
		ext := series.NewExtractor(data, mode)
		for _, l := range []int{1, 7, 100, 101} {
			ix, err := newBuilder(ext, Config{L: l})
			if err != nil {
				t.Fatal(err)
			}
			count := series.NumSubsequences(ext.Len(), l)
			for _, k := range []int{2, 3, DefaultMaxCap + 1} {
				for trial := 0; trial < 20; trial++ {
					positions := make([]int32, k)
					for i := range positions {
						positions[i] = int32(rng.Intn(count))
					}
					// Duplicated windows: every pair they form with a third
					// window ties, and the first such pair must win.
					for i := k / 2; i < k && trial%2 == 0; i++ {
						positions[i] = positions[i-k/2]
					}

					maxTies += checkSplitSeeds(t, ix, positions)
				}
			}
		}
	}
	if maxTies == 0 {
		t.Fatal("no farthest-pair tie was exercised")
	}

	// Hand cases under NormNone, one lane a row. Rounding ties:
	// fl(2^53 − 1 − (−1)) = fl(2^53 + 1) = 2^53, so the first pair at the
	// largest distance joins a row that is not the lane's extreme — above,
	// and mirrored below. NaN rows, which are at distance 0 from every
	// row: all pairs tie at 0, and a NaN row is no candidate.
	nan := math.NaN()
	for _, tc := range []struct {
		rows []float64
		i, j int
	}{
		{[]float64{1<<53 - 1, 1 << 53, -1}, 0, 2},
		{[]float64{-(1<<53 - 1), -(1 << 53), 1}, 0, 2},
		{[]float64{nan, 1, 1}, 0, 1},
		{[]float64{nan, 1, 3}, 1, 2},
	} {
		ix, err := newBuilder(series.NewExtractor(tc.rows, series.NormNone), Config{L: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := tc.rows
		if wantI, wantJ, _ := farthestPairReference([][]float64{r[:1], r[1:2], r[2:]}); wantI != tc.i || wantJ != tc.j {
			t.Fatalf("%v: reference seeds (%d, %d), the case wants (%d, %d)", r, wantI, wantJ, tc.i, tc.j)
		}
		checkSplitSeeds(t, ix, []int32{0, 1, 2})
	}
}

// farthestPairReference is the all-pairs scan: the first pair (i < j)
// at the largest Chebyshev distance, and how many later pairs tie it.
func farthestPairReference(rows [][]float64) (wantI, wantJ, ties int) {
	wantI, wantJ, maxD := 0, 1, -1.0
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			switch d := series.Chebyshev(rows[i], rows[j]); {
			case d > maxD:
				maxD, wantI, wantJ, ties = d, i, j, 0
			case d == maxD:
				ties++
			}
		}
	}
	return wantI, wantJ, ties
}

// checkSplitSeeds requires the split scratch to hold the windows at
// positions bit for bit and the envelope seeds to be the reference's,
// and returns the reference's tie count.
func checkSplitSeeds(t *testing.T, ix *builder, positions []int32) int {
	t.Helper()
	l, ext := ix.cfg.L, ix.ext
	copies := make([][]float64, len(positions))
	for i, p := range positions {
		copies[i] = ext.ExtractCopy(int(p), l)
	}
	wantI, wantJ, ties := farthestPairReference(copies)
	wins := ix.splitWindows(positions)
	for i, c := range copies {
		for x, v := range c {
			if got := wins[i*l+x]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%v L=%d k=%d: scratch row %d lane %d = %v, window has %v", ext.Mode(), l, len(positions), i, x, got, v)
			}
		}
	}
	if si, sj := ix.farthestPair(wins); si != wantI || sj != wantJ {
		t.Fatalf("%v L=%d k=%d: envelope seeds (%d, %d), pairwise Chebyshev seeds (%d, %d)",
			ext.Mode(), l, len(positions), si, sj, wantI, wantJ)
	}
	return ties
}

// TestInternalSplitSeedsMatchReference holds the pruned internal-split
// seed scan to the O(k²) Eq. 3 loop it replaces — first strict maximum
// in (i, j) order, ties included — on sibling groups drawn on a coarse
// grid (many equal distances, many overlapping bands), groups of
// copies, and groups whose bands are all disjoint or all overlapping.
func TestInternalSplitSeedsMatchReference(t *testing.T) {
	reference := func(children []*node) (si, sj int) {
		si, sj = 0, 1
		maxD := -1.0
		for i := range children {
			for j := i + 1; j < len(children); j++ {
				if d := children[i].bounds.DistMBTS(children[j].bounds); d > maxD {
					maxD, si, sj = d, i, j
				}
			}
		}
		return si, sj
	}
	rng := rand.New(rand.NewSource(25))
	var ties int
	for trial := 0; trial < 3000; trial++ {
		l := []int{1, 3, 7, 100}[trial%4]
		k := []int{2, 3, 5, DefaultMaxCap + 1}[(trial/4)%4]
		levels := []int{2, 4, 9, 1000}[(trial/16)%4]
		ix := &builder{cfg: Config{L: l}}
		children := make([]*node, k)
		for i := range children {
			b := mbts.FromSequence(gridWindow(rng, l, levels))
			for extra := rng.Intn(3); extra > 0; extra-- {
				b.ExpandToSequence(gridWindow(rng, l, levels))
			}
			if trial%5 == 0 {
				// Disjoint bands: child i sits i·levels above child 0.
				for t := range b.Upper {
					b.Upper[t] += float64(i * levels)
					b.Lower[t] += float64(i * levels)
				}
			}
			children[i] = &node{bounds: b}
		}
		if trial%3 == 0 {
			// Copies tie with their originals at every distance.
			for i := k / 2; i < k; i++ {
				orig := children[rng.Intn(k/2+1)].bounds
				children[i] = &node{bounds: mbts.New(l)}
				children[i].bounds.CopyFrom(orig)
			}
		}
		wantI, wantJ := reference(children)
		if gotI, gotJ := ix.farthestChildren(children); gotI != wantI || gotJ != wantJ {
			t.Fatalf("trial %d (L=%d k=%d levels=%d): pruned seeds (%d, %d), all-pairs seeds (%d, %d)",
				trial, l, k, levels, gotI, gotJ, wantI, wantJ)
		}
		maxD := children[wantI].bounds.DistMBTS(children[wantJ].bounds)
		for i := range children {
			for j := i + 1; j < k; j++ {
				if (i != wantI || j != wantJ) && children[i].bounds.DistMBTS(children[j].bounds) == maxD {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no farthest-children tie was exercised")
	}
}

func countNodes(n *node) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

// TestInsertAllocs pins the insert path's allocation budget: an insert
// that splits nothing allocates nothing; a leaf split allocates its two
// new leaves — a node and a position slice each — and no copy of any
// window; and when that split also splits its non-root parent, one new
// internal node — node, block of child rows and child slice — is all it
// adds, the other half reusing the node the last internal split freed.
// A fresh block for each half would exceed it.
func TestInsertAllocs(t *testing.T) {
	const (
		leafSplit     = 2 * 2
		internalSplit = leafSplit + 3
	)
	data := datasets.EEGN(2, 4000)
	count := series.NumSubsequences(len(data), 100)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	for _, mode := range allModes {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			// measure builds the index once and returns, per insert past
			// the warm-up, its allocations, how many nodes it added, and
			// whether a split node was there to reuse before it.
			measure := func() (allocs []uint64, added []int, spare []bool) {
				ix, err := newBuilder(series.NewExtractor(data, mode), Config{L: 100})
				if err != nil {
					t.Fatal(err)
				}
				p := 0
				for ; p < 200; p++ { // past the first leaf and the first root
					ix.add(p)
				}
				var ms runtime.MemStats
				for ; p < count; p++ {
					before, hadSpare := countNodes(ix.root), ix.spare != nil
					runtime.ReadMemStats(&ms)
					mallocs := ms.Mallocs
					ix.add(p)
					runtime.ReadMemStats(&ms)
					allocs = append(allocs, ms.Mallocs-mallocs)
					added = append(added, countNodes(ix.root)-before)
					spare = append(spare, hadSpare)
				}
				return allocs, added, spare
			}
			// The build is deterministic, so insert i is the same insert
			// in every pass; the minimum over three sheds an allocation
			// the runtime itself (GC, the race detector) slipped in.
			allocs, added, spare := measure()
			for pass := 1; pass < 3; pass++ {
				again, _, _ := measure()
				for i, a := range again {
					allocs[i] = min(allocs[i], a)
				}
			}
			var plain, splits, parentSplits int
			for i, a := range allocs {
				switch {
				case added[i] == 0:
					plain++
					if a != 0 {
						t.Fatalf("measured insert %d split nothing and allocated %d times", i, a)
					}
				case added[i] == 1: // one leaf split, absorbed by its parent
					splits++
					if a > leafSplit {
						t.Fatalf("measured insert %d split one leaf and allocated %d times, budget %d", i, a, leafSplit)
					}
				case added[i] == 2 && spare[i]: // and its parent, absorbed by the grandparent
					parentSplits++
					if a > internalSplit {
						t.Fatalf("measured insert %d split a leaf and its parent and allocated %d times, budget %d",
							i, a, internalSplit)
					}
				}
			}
			if plain == 0 || splits == 0 || parentSplits == 0 {
				t.Fatalf("measured %d plain inserts, %d leaf splits and %d parent splits with a split node to reuse",
					plain, splits, parentSplits)
			}
		})
	}
}
