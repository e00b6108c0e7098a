// Package sweepline implements the index-free baseline of the paper
// (§1, §3.2): slide a window of length |Q| across the whole series and
// hand every position to the verifier every method shares
// (series.Verifier). It has no filter step, so its candidates are every
// window.
package sweepline

import (
	"twinsearch/internal/series"
)

// Sweepline scans a series through an extractor (which fixes the
// normalization mode once for build and verification alike).
type Sweepline struct {
	ext *series.Extractor
}

// New returns a sweepline searcher over ext.
func New(ext *series.Extractor) *Sweepline {
	return &Sweepline{ext: ext}
}

// Search returns all twin subsequences of q at threshold eps, in start
// order. q must already be expressed in the extractor's value space
// (use Extractor.NormalizeQuery).
func (s *Sweepline) Search(q []float64, eps float64) []series.Match {
	ms, _ := s.SearchStats(q, eps)
	return ms
}

// SearchStats is Search plus the number of candidates verified (always
// every window position: the sweepline has no filter step).
func (s *Sweepline) SearchStats(q []float64, eps float64) ([]series.Match, Stats) {
	n := s.ext.Len()
	l := len(q)
	var out []series.Match
	if l == 0 || n < l {
		return out, Stats{}
	}
	ver := series.MakeVerifier(s.ext, q, eps)
	count := n - l + 1
	var starts [batch]int32
	for from := 0; from < count; from += batch {
		b := starts[:min(batch, count-from)]
		for i := range b {
			b[i] = int32(from + i)
		}
		out = ver.Within(b, out)
	}
	return out, Stats{Candidates: count, Results: len(out)}
}

// batch is how many consecutive windows one verifier call scores.
const batch = 64

// SearchEuclidean returns all subsequences with Euclidean distance ≤ eps
// to q. It exists for the paper's introductory experiment: searching
// with the Euclidean threshold ε·√|Q| retrieves a strict superset of the
// Chebyshev twins, roughly two orders of magnitude larger on EEG-like
// data.
func (s *Sweepline) SearchEuclidean(q []float64, eps float64) []series.Match {
	n := s.ext.Len()
	l := len(q)
	var out []series.Match
	if l == 0 || n < l {
		return out
	}
	buf := make([]float64, l)
	last := n - l
	for p := 0; p <= last; p++ {
		w := s.ext.Extract(p, l, buf)
		if series.WithinEuclidean(q, w, eps) {
			out = append(out, series.Match{Start: p, Dist: -1})
		}
	}
	return out
}

// Stats describes the work a search performed.
type Stats struct {
	Candidates int // windows verified
	Results    int // twins found
}
