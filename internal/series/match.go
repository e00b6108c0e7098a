package series

import (
	"cmp"
	"slices"
)

// Match is a twin subsequence hit: the 0-based start position of the
// matching window in the indexed series and its Chebyshev distance to the
// query. Search implementations that skip the exact distance (they only
// prove d ≤ ε) report Dist = -1.
type Match struct {
	Start int
	Dist  float64
}

// SortMatches orders matches by start position in place; all search
// methods in this repository report results in this canonical order so
// result sets are directly comparable. Index traversals emit positions
// in leaf order, which is arbitrary with respect to start position, so
// this must be a real O(n log n) sort — loose thresholds can make the
// result set a double-digit percentage of all windows. The typed sort
// neither reflects nor allocates, which the zero-allocation no-match
// path relies on (see BenchmarkTraceDisabled).
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int { return cmp.Compare(a.Start, b.Start) })
}

// MatchStarts projects the start positions of ms.
func MatchStarts(ms []Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Start
	}
	return out
}
