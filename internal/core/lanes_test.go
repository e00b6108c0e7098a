package core

import (
	"math"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// TestLaneOrder pins the stored lane order for every L from 1 to 512:
// s is the smallest integer ≥ ⌈L/8⌉ coprime to L, π(k) = k·s mod L is a
// bijection with π(0) = 0, and storedQuery lays a query of any length
// ℓ ≤ L out through it, NaN on the stored lanes of series lanes ≥ ℓ.
func TestLaneOrder(t *testing.T) {
	if s := laneStride(100); s != 13 {
		t.Fatalf("L = 100: stride %d, want 13", s)
	}
	for l := 1; l <= 512; l++ {
		s := laneStride(l)
		if gcd(s, l) != 1 {
			t.Fatalf("L = %d: stride %d shares a factor with L", l, s)
		}
		for c := (l + 7) / 8; c < s; c++ {
			if gcd(c, l) == 1 {
				t.Fatalf("L = %d: stride %d, but %d ≥ ⌈L/8⌉ is coprime to L", l, s, c)
			}
		}
		order := LaneOrder(l)
		if order[0] != 0 {
			t.Fatalf("L = %d: π(0) = %d", l, order[0])
		}
		seen := make([]bool, l)
		for k, i := range order {
			if int(i) != k*s%l {
				t.Fatalf("L = %d: π(%d) = %d, want %d", l, k, i, k*s%l)
			}
			if seen[i] {
				t.Fatalf("L = %d: series lane %d stored twice", l, i)
			}
			seen[i] = true
		}
		q := make([]float64, l)
		for i := range q {
			q[i] = float64(i)
		}
		for _, n := range []int{1, (l + 1) / 2, l} {
			qs := storedQuery(nil, q[:n], l)
			for k, i := range order {
				if int(i) < n && qs[k] != q[i] || int(i) >= n && !math.IsNaN(qs[k]) {
					t.Fatalf("L = %d, ℓ = %d: stored lane %d holds %v, series lane %d", l, n, k, qs[k], i)
				}
			}
		}
	}
}

// TestFreezeStoresSpreadOrder holds every arena row to its builder
// band, narrowed outward lane by lane in stored order: row lane k is
// NarrowUp / NarrowDown of the band's series lane π(k).
func TestFreezeStoresSpreadOrder(t *testing.T) {
	const l = 37
	ext := series.NewExtractor(datasets.EEGN(1, 3000), series.NormGlobal)
	ix := grow(t, ext, Config{L: l}, 0, series.NumSubsequences(ext.Len(), l))
	f := ix.freeze()
	bfs := []*node{ix.root}
	for at := 0; at < len(bfs); at++ {
		bfs = append(bfs, bfs[at].children...)
	}
	if len(bfs) != f.NodeCount() {
		t.Fatalf("%d builder nodes, %d arena nodes", len(bfs), f.NodeCount())
	}
	order := LaneOrder(l)
	for id, n := range bfs {
		up, lo := f.boundsUpper(int32(id)), f.boundsLower(int32(id))
		for k, i := range order {
			if up[k] != kernel.NarrowUp(n.bounds.Upper[i]) || lo[k] != kernel.NarrowDown(n.bounds.Lower[i]) {
				t.Fatalf("node %d stored lane %d: [%v, %v], want series lane %d's [%v, %v]",
					id, k, lo[k], up[k], i, n.bounds.Lower[i], n.bounds.Upper[i])
			}
		}
	}
}
