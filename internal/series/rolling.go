package series

import "math"

// Rolling precomputes prefix sums over a series so that the mean and
// standard deviation of any window can be answered in O(1). It backs the
// KV-Index mean filter and on-the-fly per-subsequence z-normalization.
type Rolling struct {
	sum  []float64 // sum[i] = Σ t[0:i]
	sum2 []float64 // sum2[i] = Σ t[0:i]^2
	n    int
}

// NewRolling builds prefix sums over t in O(n).
func NewRolling(t []float64) *Rolling {
	r := &Rolling{
		sum:  make([]float64, len(t)+1),
		sum2: make([]float64, len(t)+1),
		n:    len(t),
	}
	for i, v := range t {
		r.sum[i+1] = r.sum[i] + v
		r.sum2[i+1] = r.sum2[i] + v*v
	}
	return r
}

// Append extends the prefix sums with new trailing values, keeping all
// previously answerable windows valid.
func (r *Rolling) Append(vs ...float64) {
	for _, v := range vs {
		r.sum = append(r.sum, r.sum[r.n]+v)
		r.sum2 = append(r.sum2, r.sum2[r.n]+v*v)
		r.n++
	}
}

// Mean returns the mean of the window [p, p+l).
func (r *Rolling) Mean(p, l int) float64 {
	return (r.sum[p+l] - r.sum[p]) / float64(l)
}

// MeanStd returns the mean and population standard deviation of the
// window [p, p+l). Floating-point cancellation can drive the variance
// estimate slightly negative for constant windows; it is clamped to 0.
func (r *Rolling) MeanStd(p, l int) (mean, std float64) {
	fl := float64(l)
	mean = (r.sum[p+l] - r.sum[p]) / fl
	variance := (r.sum2[p+l]-r.sum2[p])/fl - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}
