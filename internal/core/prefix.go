package core

import "twinsearch/internal/series"

// ScanPrefixTail verifies the windows that exist only at the shorter
// query length — starts in (n−L, n−len(q)], empty when len(q) == L —
// appending matches to out in ascending start order. Shared by
// Frozen.SearchPrefix and the sharded fan-out (which must run it once,
// not once per shard).
func ScanPrefixTail(ext *series.Extractor, indexedL int, q []float64, eps float64, out []series.Match) []series.Match {
	if len(q) >= indexedL {
		return out
	}
	ver := series.NewVerifier(ext, q, eps)
	n := ext.Len()
	for p := n - indexedL + 1; p <= n-len(q); p++ {
		if p < 0 {
			continue
		}
		if ver.Verify(p) {
			out = append(out, series.Match{Start: p, Dist: -1})
		}
	}
	return out
}
