// Package oracle is the definition of twin subsequence search, written
// as plainly as it can be: every window is extracted and compared with
// series.Chebyshev — no index, no early abandoning, no Verifier and no
// distance kernel. Tests compare every index form, backing and wire hop
// against it; nothing outside tests imports it.
package oracle

import (
	"cmp"
	"slices"

	"twinsearch/internal/series"
)

// Range returns every window of len(q) values within Chebyshev distance
// eps of q, in start order, with Dist = -1 as the range paths report it.
func Range(ext *series.Extractor, q []float64, eps float64) []series.Match {
	var out []series.Match
	buf := make([]float64, len(q))
	for p, n := 0, series.NumSubsequences(ext.Len(), len(q)); p < n; p++ {
		if series.Chebyshev(q, ext.Extract(p, len(q), buf)) <= eps {
			out = append(out, series.Match{Start: p, Dist: -1})
		}
	}
	return out
}

// Prefix is Range for a query no longer than the indexed length l,
// split where an index over l-length windows stops: indexed holds the
// twins starting at an indexed position (p ≤ n−l), tail those that
// exist only at the shorter length. indexed followed by tail is
// Range(ext, q, eps), the whole answer.
func Prefix(ext *series.Extractor, l int, q []float64, eps float64) (indexed, tail []series.Match) {
	all := Range(ext, q, eps)
	count := series.NumSubsequences(ext.Len(), l)
	at, _ := slices.BinarySearchFunc(all, count, func(m series.Match, c int) int { return cmp.Compare(m.Start, c) })
	return all[:at:at], all[at:]
}

// TopK returns the k windows nearest to q in (dist, start) order — a
// strict total order, so ties at the k-th place resolve to the earliest
// starts.
func TopK(ext *series.Extractor, q []float64, k int) []series.Match {
	n := series.NumSubsequences(ext.Len(), len(q))
	all := make([]series.Match, n)
	buf := make([]float64, len(q))
	for p := range all {
		all[p] = series.Match{Start: p, Dist: series.Chebyshev(q, ext.Extract(p, len(q), buf))}
	}
	slices.SortFunc(all, func(a, b series.Match) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	return all[:max(0, min(k, n))]
}
