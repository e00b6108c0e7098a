package core

import (
	"fmt"
	"math/rand"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// exactRange walks the builder's tree the way the range traversal walks
// the arena — a node is visited when every ancestor passed Lemma 1 —
// against the builder's exact float64 bounds: the counters a full-width
// arena reports (the visit set does not depend on visit order).
func exactRange(n *node, q []float64, eps float64, st *Stats) {
	st.NodesVisited++
	if kernel.DistFlat(n.bounds.Upper, n.bounds.Lower, q) > eps {
		st.NodesPruned++
		return
	}
	if n.leaf {
		st.LeavesReached++
		st.Candidates += len(n.positions)
		return
	}
	for _, c := range n.children {
		exactRange(c, q, eps, st)
	}
}

// checkNarrowedAgainstExact answers q on every path of the narrowed
// arena and requires the oracle's answer, byte for byte, and range
// counters no lower than the exact bounds give. It returns the two
// candidate counts so callers can report the inflation.
func checkNarrowedAgainstExact(t *testing.T, ix *builder, f *Frozen, q []float64, eps float64) (narrowed, exact int) {
	t.Helper()
	ext, l := f.Extractor(), f.L()
	want := oracle.Range(ext, q, eps)
	got, st := f.SearchStats(q, eps)
	if !matchesEqual(got, want) {
		t.Fatalf("range eps=%v: %d matches, oracle %d", eps, len(got), len(want))
	}
	var ex Stats
	exactRange(ix.root, q, eps, &ex)
	if st.NodesVisited < ex.NodesVisited || st.LeavesReached < ex.LeavesReached || st.Candidates < ex.Candidates {
		t.Fatalf("range eps=%v: narrowed bounds did less work than exact ones: %+v vs %+v", eps, st, ex)
	}
	if ext.Mode() != series.NormPerSubsequence {
		short := q[:l-37]
		indexed, tail := oracle.Prefix(ext, l, short, eps)
		if got := searchShorter(f, short, eps); !matchesEqual(got, append(indexed, tail...)) {
			t.Fatalf("prefix eps=%v: %d matches, oracle %d", eps, len(got), len(indexed)+len(tail))
		}
	}
	for _, k := range []int{1, 10, 90} {
		wantK := oracle.TopK(ext, q, k)
		if got := f.SearchTopK(q, k); !matchesEqual(got, wantK) {
			t.Fatalf("top-%d: %v, oracle %v", k, got, wantK)
		}
	}
	return st.Candidates, ex.Candidates
}

// TestNarrowedBoundsDifferential runs the golden grid (the trees and
// queries of TestTraversalGoldenStats) through every search path of the
// float32 arena: answers are the oracle's, and the range traversal never
// visits fewer nodes or offers fewer candidates than the same traversal
// over the builder's exact float64 bounds — outward rounding can
// only admit, never prune.
func TestNarrowedBoundsDifferential(t *testing.T) {
	data := datasets.EEGN(5, 12000)
	for _, cfg := range []Config{{L: 100}, {L: 101, MinCap: 30, MaxCap: 80}} {
		for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
			t.Run(fmt.Sprintf("L=%d/Mc=%d/%v/bulk=false", cfg.L, cfg.MaxCap, mode), func(t *testing.T) {
				ext := series.NewExtractor(data, mode)
				ix := grow(t, ext, cfg, 0, series.NumSubsequences(ext.Len(), cfg.L))
				f := ix.freeze()
				checkSealed(t, f, 0, f.Len())
				narrowed, exact := 0, 0
				for _, start := range []int{17, 4000, f.Len() - 1} {
					q := ext.ExtractCopy(start, cfg.L)
					for _, eps := range []float64{0, 0.2, 1.0} {
						n, e := checkNarrowedAgainstExact(t, ix, f, q, eps)
						narrowed, exact = narrowed+n, exact+e
					}
				}
				t.Logf("range candidates: %d narrowed, %d exact", narrowed, exact)
			})
		}
	}
}

// TestNarrowedBoundsLargeOffset is the case the workloads do not have:
// raw (NormNone) values near 1e7, where adjacent float32s are 1.0
// apart, searched at ε = 0.5 — the rounding slack is larger than the
// threshold. Every bound still encloses its windows, answers are still
// the oracle's, and the log line is the measured price: how many more
// candidates the slack admits (README "Index layout" quotes it).
func TestNarrowedBoundsLargeOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, 6000)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.3
		data[i] = 1e7 + v
	}
	const l, eps = 64, 0.5
	ext := series.NewExtractor(data, series.NormNone)
	ix := grow(t, ext, Config{L: l}, 0, series.NumSubsequences(ext.Len(), l))
	f := ix.freeze()
	checkSealed(t, f, 0, f.Len())
	narrowed, exact := 0, 0
	for _, start := range []int{3, 1500, 2999, 4400, f.Len() - 1} {
		n, e := checkNarrowedAgainstExact(t, ix, f, ext.ExtractCopy(start, l), eps)
		narrowed, exact = narrowed+n, exact+e
	}
	if narrowed < exact {
		t.Fatalf("narrowed bounds offered %d candidates, exact ones %d", narrowed, exact)
	}
	t.Logf("offset 1e7, eps %v: %d candidates with float32 bounds, %d with exact ones (×%.2f)",
		eps, narrowed, exact, float64(narrowed)/float64(max(exact, 1)))
}
