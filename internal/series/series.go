// Package series provides the core time-series substrate used by every
// index in this repository: subsequence views, summary statistics,
// z-normalization (global and rolling per-window), the Chebyshev and
// Euclidean distances, and the verification step every search method
// shares (Verifier).
//
// Positions are 0-based throughout: the subsequence of T starting at
// position p with length l is T[p : p+l].
package series

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned by operations that require a non-empty sequence.
var ErrEmpty = errors.New("series: empty sequence")

// ErrBounds is returned when a requested subsequence falls outside the
// series.
var ErrBounds = errors.New("series: subsequence out of bounds")

// Sub returns the subsequence of t starting at p with length l as a view
// (no copy). It returns ErrBounds when the window does not fit.
func Sub(t []float64, p, l int) ([]float64, error) {
	if p < 0 || l <= 0 || p+l > len(t) {
		return nil, fmt.Errorf("%w: start=%d len=%d series=%d", ErrBounds, p, l, len(t))
	}
	return t[p : p+l], nil
}

// NumSubsequences returns the number of l-length subsequences of a series
// with n points: n-l+1, or 0 when the window does not fit.
func NumSubsequences(n, l int) int {
	if l <= 0 || n < l {
		return 0
	}
	return n - l + 1
}

// Mean returns the arithmetic mean of s. It returns 0 for an empty slice.
func Mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// MeanStd returns the mean and the population standard deviation of s.
func MeanStd(s []float64) (mean, std float64) {
	if len(s) == 0 {
		return 0, 0
	}
	mean = Mean(s)
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(s)))
	return mean, std
}

// MinMax returns the minimum and maximum value of s. It returns
// (+Inf, -Inf) for an empty slice so that the result folds correctly.
func MinMax(s []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range s {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ZNormalize returns a z-normalized copy of s: zero mean, unit standard
// deviation. A (near-)constant sequence normalizes to all zeros, the
// convention used by the UCR suite.
func ZNormalize(s []float64) []float64 {
	out := make([]float64, len(s))
	ZNormalizeTo(out, s)
	return out
}

// zeroStd is the threshold under which a window is treated as constant:
// dividing by a smaller σ would only amplify float noise.
const zeroStd = 1e-12

// ZNormalizeTo writes the z-normalization of src into dst, which must have
// the same length. dst and src may alias.
func ZNormalizeTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("series: ZNormalizeTo length mismatch")
	}
	mean, std := MeanStd(src)
	scaleInto(dst, src, mean, std)
}

// scaleInto writes (v − mean)/std of every v in src into dst — the one
// normalization arithmetic every mode, window and query shares — or
// zeros when std is below zeroStd. dst and src may alias.
func scaleInto(dst, src []float64, mean, std float64) {
	if std < zeroStd {
		clear(dst)
		return
	}
	inv := 1 / std
	for i, v := range src {
		dst[i] = (v - mean) * inv
	}
}

// Chebyshev returns the L∞ distance between equal-length sequences a and b:
// the maximum absolute pointwise difference. It panics on length mismatch.
func Chebyshev(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("series: Chebyshev length mismatch")
	}
	var max float64
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Euclidean returns the L2 distance between equal-length sequences.
func Euclidean(a, b []float64) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// SquaredEuclidean returns the squared L2 distance between equal-length
// sequences.
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("series: SquaredEuclidean length mismatch")
	}
	var sum float64
	for i, v := range a {
		d := v - b[i]
		sum += d * d
	}
	return sum
}

// WithinEuclidean reports whether ED(a, b) ≤ eps with early abandoning on
// the running sum of squares.
func WithinEuclidean(a, b []float64, eps float64) bool {
	if len(a) != len(b) {
		panic("series: WithinEuclidean length mismatch")
	}
	limit := eps * eps
	var sum float64
	for i, v := range a {
		d := v - b[i]
		sum += d * d
		if sum > limit {
			return false
		}
	}
	return true
}

// EuclideanThresholdFor returns the Euclidean threshold ε·√l that admits
// every Chebyshev twin of length l at threshold eps (paper §3.1): if
// d∞(S,S′) ≤ ε then ED(S,S′) ≤ ε√l.
func EuclideanThresholdFor(eps float64, l int) float64 {
	return eps * math.Sqrt(float64(l))
}
