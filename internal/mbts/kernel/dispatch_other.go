//go:build !amd64

package kernel

// Non-amd64 builds have no assembly kernels yet (an ARM NEON port is
// the noted follow-on); dispatch settles on the portable branch-free
// form.
var hasAVX2 = false

func avx2Impl() Impl { return portableImpl }

func sweepAbandonFlatAVX2(upper, lower []float64, stride int, s []float64, limit float64, dists []float64) {
	sweepAbandonFlatPortable(upper, lower, stride, s, limit, dists)
}

func sweepAbandonFlat32AVX2(upper, lower []float32, stride int, s []float64, limit float64, dists []float64) {
	sweepAbandonFlat32Portable(upper, lower, stride, s, limit, dists)
}

func sweepWindowsAVX2(data []float64, starts []int32, s []float64, limit float64, dists []float64) {
	sweepWindowsPortable(data, starts, s, limit, dists)
}

func distAbandonFlat32AVX2(upper, lower []float32, s []float64, limit float64) (float64, bool) {
	return distAbandonFlat32Portable(upper, lower, s, limit)
}

func windowsInside32AVX2(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	return windowsInside32Portable(upper, lower, data, starts, order)
}

func boundsInside32AVX2(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	return boundsInside32Portable(upper, lower, childUpper, childLower, n, rows)
}

func expandAVX2(upper, lower, s []float64) { expandScalar(upper, lower, s) }
