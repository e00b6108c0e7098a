package series

import (
	"cmp"
	"math"
	"slices"
)

// Verifier performs the verification step of the filter-verification
// framework (paper §3.2): it checks candidate windows against a fixed
// query with early abandoning, optionally visiting positions in order of
// decreasing |Q_i| ("reordering early abandoning", as in the UCR suite) —
// on z-normalized data the extreme query values are the least likely to
// match, so violations surface after very few comparisons.
type Verifier struct {
	q     []float64
	eps   float64
	order []int // visit order over query positions; nil = sequential
	ext   *Extractor

	diskBuf []float64 // scratch for disk-backed window reads

	candidates int // windows checked
	pointOps   int // pointwise comparisons performed
	diskReads  int // windows fetched from the backing store
}

// NewVerifier builds a verifier for query q at threshold eps over the
// extractor ext. Reordering is applied for normalized modes, where the
// |value| heuristic is meaningful; raw mode verifies sequentially.
func NewVerifier(ext *Extractor, q []float64, eps float64) *Verifier {
	v := MakeVerifier(ext, q, eps)
	return &v
}

// MakeVerifier is NewVerifier by value: core's traversal loops hold the
// verifier on the stack, keeping the allocation-free query path
// (BenchmarkTraceDisabled) allocation-free. Raw mode allocates nothing;
// normalized modes still build the reordering permutation.
func MakeVerifier(ext *Extractor, q []float64, eps float64) Verifier {
	v := Verifier{q: q, eps: eps, ext: ext}
	if ext.Mode() != NormNone {
		v.order = DescendingMagnitudeOrder(q)
	}
	return v
}

// DescendingMagnitudeOrder returns the positions of q sorted by
// decreasing absolute value, the visit order used by reordering early
// abandoning. Equal magnitudes keep index order, so the visit order is
// a function of q alone.
func DescendingMagnitudeOrder(q []float64) []int {
	order := make([]int, len(q))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(math.Abs(q[b]), math.Abs(q[a])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Verify reports whether the window starting at p is a twin of the query.
func (v *Verifier) Verify(p int) bool {
	v.candidates++
	if v.ext.backing != nil {
		return v.verifyFromStore(p)
	}
	l := len(v.q)
	data := v.ext.Data()
	w := data[p : p+l]

	if v.ext.Mode() == NormPerSubsequence {
		return v.verifyPerSub(p, w)
	}
	if v.order == nil {
		for i, qv := range v.q {
			v.pointOps++
			d := qv - w[i]
			if d > v.eps || -d > v.eps {
				return false
			}
		}
		return true
	}
	for _, i := range v.order {
		v.pointOps++
		d := v.q[i] - w[i]
		if d > v.eps || -d > v.eps {
			return false
		}
	}
	return true
}

func (v *Verifier) verifyPerSub(p int, w []float64) bool {
	mean, std := v.ext.rolling.MeanStd(p, len(v.q))
	if std < zeroStd {
		for _, i := range v.order {
			v.pointOps++
			qv := v.q[i]
			if qv > v.eps || -qv > v.eps {
				return false
			}
		}
		return true
	}
	inv := 1 / std
	for _, i := range v.order {
		v.pointOps++
		d := v.q[i] - (w[i]-mean)*inv
		if d > v.eps || -d > v.eps {
			return false
		}
	}
	return true
}

// verifyFromStore implements the paper's disk-resident evaluation setup:
// the candidate window is fetched from the backing store with one
// random-access read of the raw series, the extractor's normalization is
// re-applied, and the (reordered) early-abandoning comparison runs over
// the fetched buffer. An I/O failure is a programming or environment
// error the search cannot recover from, so it panics with context.
func (v *Verifier) verifyFromStore(p int) bool {
	l := len(v.q)
	if cap(v.diskBuf) < l {
		v.diskBuf = make([]float64, l)
	}
	raw := v.diskBuf[:l]
	if err := v.ext.backing.ReadAt(raw, p); err != nil {
		panic("series: disk-backed verification read failed: " + err.Error())
	}
	v.diskReads++

	switch v.ext.mode {
	case NormGlobal:
		if v.ext.gStd == 0 {
			// Constant series: every normalized value is zero.
			for i := range raw {
				raw[i] = 0
			}
		} else {
			inv := 1 / v.ext.gStd
			for i, x := range raw {
				raw[i] = (x - v.ext.gMean) * inv
			}
		}
	case NormPerSubsequence:
		// Rolling prefix sums stay in memory (they are part of the
		// index-side state); only the values come from disk.
		mean, std := v.ext.rolling.MeanStd(p, l)
		if std < zeroStd {
			for i := range raw {
				raw[i] = 0
			}
		} else {
			inv := 1 / std
			for i, x := range raw {
				raw[i] = (x - mean) * inv
			}
		}
	}

	if v.order == nil {
		for i, qv := range v.q {
			v.pointOps++
			d := qv - raw[i]
			if d > v.eps || -d > v.eps {
				return false
			}
		}
		return true
	}
	for _, i := range v.order {
		v.pointOps++
		d := v.q[i] - raw[i]
		if d > v.eps || -d > v.eps {
			return false
		}
	}
	return true
}

// Stats returns the number of candidate windows checked and the total
// pointwise comparisons performed so far.
func (v *Verifier) Stats() (candidates, pointOps int) {
	return v.candidates, v.pointOps
}

// DiskReads returns how many candidate windows were fetched from the
// backing store.
func (v *Verifier) DiskReads() int { return v.diskReads }

// Reset clears the verifier's counters.
func (v *Verifier) Reset() {
	v.candidates, v.pointOps, v.diskReads = 0, 0, 0
}
