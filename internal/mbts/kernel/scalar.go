package kernel

// The original branchy kernels, verbatim from internal/mbts as shipped
// since PR 1 — kept as the differential oracle: the portable and
// assembly forms must reproduce these bit-for-bit on every input
// (TestKernelDifferential, FuzzDistKernels). They are also the fallback
// of last resort via TWINSEARCH_KERNEL=scalar.

func distAbandonFlatScalar(upper, lower, s []float64, limit float64) (float64, bool) {
	var max float64
	for i, v := range s {
		var d float64
		if v > upper[i] {
			d = v - upper[i]
		} else if v < lower[i] {
			d = lower[i] - v
		}
		if d > max {
			if d > limit {
				return 0, false
			}
			max = d
		}
	}
	return max, true
}

func sweepAbandonFlatScalar(upper, lower []float64, stride int, s []float64, limit float64, dists []float64) {
	checkSweepShape(len(upper), len(lower), stride, len(s), len(dists))
	for j := range dists {
		lo, hi := j*stride, j*stride+len(s)
		dists[j] = rowDist(distAbandonFlatScalar(upper[lo:hi], lower[lo:hi], s, limit))
	}
}

// sweepWindowsScalar is the candidate sweep's definition, as written:
// the single-row form above with both bounds set to the window.
func sweepWindowsScalar(data []float64, starts []int32, s []float64, limit float64, dists []float64) {
	dists = checkWindows(len(data), starts, len(s), dists)
	for j, p := range starts {
		w := data[p : int(p)+len(s)]
		d, ok := distAbandonFlatScalar(w, w, s, limit)
		if !ok {
			d = Abandoned
		}
		dists[j] = d
	}
}

// The float32-bound forms are the loops above with each bound widened
// as it is loaded — float32 → float64 is exact, so they equal the
// float64 forms on the widened arrays bit for bit.

func distAbandonFlat32Scalar(upper, lower []float32, s []float64, limit float64) (float64, bool) {
	var max float64
	for i, v := range s {
		u, l := float64(upper[i]), float64(lower[i])
		var d float64
		if v > u {
			d = v - u
		} else if v < l {
			d = l - v
		}
		if d > max {
			if d > limit {
				return 0, false
			}
			max = d
		}
	}
	return max, true
}

func sweepAbandonFlat32Scalar(upper, lower []float32, stride int, s []float64, limit float64, dists []float64) {
	checkSweepShape(len(upper), len(lower), stride, len(s), len(dists))
	for j := range dists {
		lo, hi := j*stride, j*stride+len(s)
		dists[j] = rowDist(distAbandonFlat32Scalar(upper[lo:hi], lower[lo:hi], s, limit))
	}
}

// windowsInside32Scalar is the enclosure test's definition, as
// written: the single-row distance of every window against the band
// read in order, required to be 0 — the excursion of lane i against
// upper[order.at[i]] and lower[order.at[i]], as distAbandonFlat32Scalar
// takes it.
func windowsInside32Scalar(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	n := order.Len()
	checkInside(len(upper), len(lower), len(data), starts, n)
	for _, p := range starts {
		for i, v := range data[p : int(p)+n] {
			u, l := float64(upper[order.at[i]]), float64(lower[order.at[i]])
			var d float64
			if v > u {
				d = v - u
			} else if v < l {
				d = l - v
			}
			if d != 0 {
				return false
			}
		}
	}
	return true
}

// boundsInside32Scalar is the row enclosure test's definition, the
// loop the heap open ran per child before the kernel existed.
func boundsInside32Scalar(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	checkBoundsInside(len(upper), len(lower), len(childUpper), len(childLower), n, rows)
	for j := 0; j < rows; j++ {
		cu, cl := childUpper[j*n:(j+1)*n], childLower[j*n:(j+1)*n]
		for t := 0; t < n; t++ {
			if cu[t] > upper[t] || cl[t] < lower[t] {
				return false
			}
		}
	}
	return true
}

// expandScalar is mbts.ExpandToSequence's original loop, verbatim.
func expandScalar(upper, lower, s []float64) {
	for i, v := range s {
		if v > upper[i] {
			upper[i] = v
		}
		if v < lower[i] {
			lower[i] = v
		}
	}
}
