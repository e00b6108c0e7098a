// Package kvindex adapts KV-Index [Wu et al. 2019, "KV-Match"] to twin
// subsequence search exactly as the paper's §4.1 describes: every
// ℓ-length window of the series is summarized by its mean value; an
// inverted index maps ranges of mean values (keys) to intervals of
// window start positions. The twin filter rests on the mean bound — if
// d∞(S, S′) ≤ ε then |mean(S) − mean(S′)| ≤ ε — so the candidates for a
// query with mean µq are the positions filed under keys intersecting
// [µq−ε, µq+ε].
//
// KV-Index cannot be built over per-subsequence-normalized data: every
// window mean is zero and the filter degenerates (§4.1); Build returns
// ErrPerSubsequenceNorm in that mode.
package kvindex

import (
	"errors"
	"fmt"
	"math"

	"twinsearch/internal/series"
)

// ErrPerSubsequenceNorm is returned by Build when the extractor
// z-normalizes each subsequence individually.
var ErrPerSubsequenceNorm = errors.New("kvindex: mean filter is void under per-subsequence normalization")

// DefaultKeyCount is the number of equi-width mean-range keys.
const DefaultKeyCount = 256

// Config parameterizes index construction.
type Config struct {
	// L is the indexed subsequence length.
	L int
}

// interval is an inclusive run [Start, End] of window start positions.
type interval struct {
	Start, End int32
}

// Index is the built inverted index.
type Index struct {
	ext     *series.Extractor
	cfg     Config
	minMean float64
	width   float64 // bucket width
	buckets [][]interval
	size    int // indexed windows
}

// Stats describes the work a search performed.
type Stats struct {
	Candidates int // positions pulled from qualifying buckets, each verified
	Results    int
	Buckets    int // buckets touched
}

// Build constructs a KV-Index over all ℓ-length windows of the
// extractor's series.
func Build(ext *series.Extractor, cfg Config) (*Index, error) {
	if ext.Mode() == series.NormPerSubsequence {
		return nil, ErrPerSubsequenceNorm
	}
	if cfg.L <= 0 {
		return nil, fmt.Errorf("kvindex: invalid subsequence length %d", cfg.L)
	}
	n := ext.Len()
	count := series.NumSubsequences(n, cfg.L)
	if count == 0 {
		return nil, fmt.Errorf("kvindex: series length %d shorter than subsequence length %d", n, cfg.L)
	}

	ix := &Index{ext: ext, cfg: cfg, size: count}
	rolling := series.NewRolling(ext.Data())

	// Pass 1: mean range.
	minMean, maxMean := math.Inf(1), math.Inf(-1)
	for p := 0; p < count; p++ {
		mu := rolling.Mean(p, cfg.L)
		if mu < minMean {
			minMean = mu
		}
		if mu > maxMean {
			maxMean = mu
		}
	}
	ix.minMean = minMean
	span := maxMean - minMean
	if span <= 0 {
		// All windows share one mean; a single bucket holds everything.
		span = 1
	}
	ix.width = span / DefaultKeyCount

	// Pass 2: fill buckets, merging consecutive positions into intervals.
	ix.buckets = make([][]interval, DefaultKeyCount)
	for p := 0; p < count; p++ {
		b := ix.bucketOf(rolling.Mean(p, cfg.L))
		list := ix.buckets[b]
		if k := len(list); k > 0 && list[k-1].End == int32(p-1) {
			list[k-1].End = int32(p)
		} else {
			list = append(list, interval{int32(p), int32(p)})
		}
		ix.buckets[b] = list
	}
	return ix, nil
}

func (ix *Index) bucketOf(mu float64) int {
	b := int((mu - ix.minMean) / ix.width)
	if b < 0 {
		b = 0
	}
	if b >= len(ix.buckets) {
		b = len(ix.buckets) - 1
	}
	return b
}

// Len returns the number of indexed windows.
func (ix *Index) Len() int { return ix.size }

// L returns the indexed subsequence length.
func (ix *Index) L() int { return ix.cfg.L }

// Search returns all twin subsequences of q at threshold eps, in start
// order. q must be in the extractor's value space and len(q) must equal
// the indexed length.
func (ix *Index) Search(q []float64, eps float64) []series.Match {
	ms, _ := ix.SearchStats(q, eps)
	return ms
}

// SearchStats is Search with filter/verification counters.
func (ix *Index) SearchStats(q []float64, eps float64) ([]series.Match, Stats) {
	if len(q) != ix.cfg.L {
		panic(fmt.Sprintf("kvindex: query length %d, index built for %d", len(q), ix.cfg.L))
	}
	muQ := series.Mean(q)
	lo, hi := ix.bucketOf(muQ-eps), ix.bucketOf(muQ+eps)

	var st Stats
	var out []series.Match
	ver := series.MakeVerifier(ix.ext, q, eps)
	var buf [64]int32
	starts := buf[:0]
	for b := lo; b <= hi; b++ {
		if len(ix.buckets[b]) == 0 {
			continue
		}
		st.Buckets++
		for _, iv := range ix.buckets[b] {
			for p := iv.Start; p <= iv.End; p++ {
				st.Candidates++
				if starts = append(starts, p); len(starts) == len(buf) {
					out = ver.Within(starts, out)
					starts = starts[:0]
				}
			}
		}
	}
	out = ver.Within(starts, out)
	// Buckets are scanned in key order, so positions arrive out of start
	// order; restore the canonical ordering.
	series.SortMatches(out)
	st.Results = len(out)
	return out, st
}

// MemoryBytes estimates the heap footprint of the index structure
// (buckets and intervals — the paper's Fig. 8a accounting: the raw
// series lives on disk and the rolling sums are construction
// scaffolding, dropped when Build returns).
func (ix *Index) MemoryBytes() int {
	bytes := 24 * len(ix.buckets) // slice headers
	for _, b := range ix.buckets {
		bytes += 8 * len(b)
	}
	return bytes + 64
}

// IntervalCount returns the total number of stored intervals, a proxy
// for how fragmented the inverted lists are.
func (ix *Index) IntervalCount() int {
	n := 0
	for _, b := range ix.buckets {
		n += len(b)
	}
	return n
}
