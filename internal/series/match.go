package series

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
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
// in leaf order, which is arbitrary with respect to start position, and
// loose thresholds can make the result set a double-digit percentage of
// all windows. It is also the one ordering step of a sharded range
// answer: each shard's traversal orders its own answer, and the shards'
// answers concatenate in position order. A range answer — distinct starts, every
// Dist = -1 — dense in its position range is ordered by one bitmap pass
// (orderDense); anything else, and any answer of fewer than minDense
// matches, takes a comparison sort, so the result is bit for bit
// slices.SortFunc's. Neither path allocates once the free list holds a
// long enough bitmap, which the zero-allocation no-match path relies on
// (see BenchmarkTraceDisabled).
func SortMatches(ms []Match) {
	if len(ms) >= minDense && orderDense(ms) {
		return
	}
	slices.SortFunc(ms, byStart)
}

func byStart(a, b Match) int { return cmp.Compare(a.Start, b.Start) }

// The bitmap rule. An answer of fewer than minDense matches — most
// answers at ε = 0.2 — is sorted: the bitmap's fixed cost (mostly the
// free list's lock, taken twice) is ~70 ns, more than the sort of up to
// six matches and less than that of eight (BenchmarkSortMatches). A larger
// one takes the bitmap when the words spanning [min, max] of its starts
// number at most denseRatio per match: at that bound the scan costs
// about as much as the matches' own writes, while the sort costs
// ~log2(n) comparisons a match.
const (
	minDense   = 8
	denseRatio = 4
)

// Zeroed bitmaps are kept on a small free list; orderDense zeroes every
// word it sets before it puts one back. Not a sync.Pool: under the race
// detector a Pool drops a quarter of what it is given, which would make
// the allocation count of every ordered answer random. Bitmaps longer
// than maxKeptWords (a span of 2²¹ positions) are left to the collector.
const (
	maxFreeBitmaps = 16
	maxKeptWords   = 1 << 15
)

var (
	bitmapMu    sync.Mutex
	freeBitmaps = make([][]uint64, 0, maxFreeBitmaps)
)

// getBitmap returns a zeroed bitmap of the given length: the most
// recently freed one long enough, or a new one when none is. Shorter
// bitmaps stay on the list for the answers they fit.
func getBitmap(words int) []uint64 {
	bitmapMu.Lock()
	for i := len(freeBitmaps) - 1; i >= 0; i-- {
		if bm := freeBitmaps[i]; cap(bm) >= words {
			freeBitmaps = slices.Delete(freeBitmaps, i, i+1)
			bitmapMu.Unlock()
			return bm[:words]
		}
	}
	bitmapMu.Unlock()
	return make([]uint64, words)
}

// putBitmap returns a zeroed bitmap to the free list.
func putBitmap(bm []uint64) {
	if cap(bm) > maxKeptWords {
		return
	}
	bitmapMu.Lock()
	if len(freeBitmaps) < maxFreeBitmaps {
		freeBitmaps = append(freeBitmaps, bm)
	}
	bitmapMu.Unlock()
}

// orderDense orders a non-empty ms by start in place by a bitmap over
// their position range, when that reproduces the sort bit for bit and
// is cheap: every Dist is -1, no start repeats, and the range is dense
// (denseRatio). It reads every match before it writes one, and reports
// false, with ms unwritten, for any other input.
func orderDense(ms []Match) bool {
	lo, hi := math.MaxInt, math.MinInt
	for _, m := range ms {
		if m.Dist != -1 {
			return false
		}
		lo, hi = min(lo, m.Start), max(hi, m.Start)
	}
	// In uint so that no pair of starts overflows the span.
	span := uint(hi) - uint(lo)
	if span>>6 >= uint(denseRatio*len(ms)) {
		return false
	}
	bm := getBitmap(int(span>>6) + 1)
	defer putBitmap(bm)
	for _, m := range ms {
		off := uint(m.Start) - uint(lo)
		w, bit := off>>6, uint64(1)<<(off&63)
		if bm[w]&bit != 0 {
			clear(bm)
			return false
		}
		bm[w] |= bit
	}
	at := 0
	for w, word := range bm {
		if word == 0 {
			continue
		}
		bm[w] = 0
		for ; word != 0; word &= word - 1 {
			ms[at] = Match{Start: lo + w<<6 + bits.TrailingZeros64(word), Dist: -1}
			at++
		}
	}
	return true
}

// MatchStarts projects the start positions of ms.
func MatchStarts(ms []Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Start
	}
	return out
}
