package kernel

import "math"

// The branch-free portable kernels — the semantic definition of the
// package (see the package comment's NaN contract). Per-element
// branches on data-dependent float comparisons cost a mispredict each
// on real workloads (whether a lane excurses is essentially random), so
// the lane computation selects the excursion with conditional moves
// over the raw float bits: both candidate differences are computed
// unconditionally, then picked by CMOV.
//
// The running maximum is the trick that makes this fast: every
// excursion is +0 or strictly positive and never NaN, and non-negative
// IEEE doubles order identically to their bit patterns taken as
// uint64 — so the maximum accumulates in the integer domain with a
// compare+CMOV, keeping the loop-carried dependency to one integer
// move instead of a float→mask→float round trip per lane. Early
// abandoning is hoisted out of the lane loop entirely and checked on
// the package's graduated schedule (nextCheck).

// laneBlock is the steady-state distance between limit checks.
const laneBlock = 64

// nextCheck returns the lane count at which the abandoning kernels
// next compare the running maximum against the limit, given the check
// point just passed (0 at the start): 8, 16, 32, 64, then every
// laneBlock lanes.
func nextCheck(done int) int {
	if done == 0 {
		return 8
	}
	return done + min(done, laneBlock)
}

// excursionBits is one Eq. 2 lane: the bit pattern of how far v lies
// outside [l, u], selected branch-free (the compiler lowers the
// conditional assignments to CMOV — both differences are computed
// unconditionally, so there is no branch to mispredict). The "above"
// select is applied last and wins when both fire (inverted bounds),
// matching the scalar else-if chain; a NaN anywhere leaves both
// comparisons false, so the lane contributes +0. The selected
// differences are never NaN (v > u implies both are ordered and not
// equal infinities) and never −0 (distinct float64s never subtract to
// zero), so the result is always the bit pattern of a non-negative
// double — comparable as a uint64.
func excursionBits(u, l, v float64) uint64 {
	da := math.Float64bits(v - u)
	db := math.Float64bits(l - v)
	var d uint64
	if v < l {
		d = db
	}
	if v > u {
		d = da
	}
	return d
}

func distAbandonFlatPortable(upper, lower, s []float64, limit float64) (float64, bool) {
	n := len(s)
	upper, lower = upper[:n], lower[:n]
	if limit < 0 {
		// The scalar form's limit check is gated behind d > max with
		// max ≥ 0, so it abandons only when some excursion is BOTH
		// positive and above the limit — a negative limit acts as zero.
		// (NaN stays NaN: `NaN < 0` is false, and NaN never abandons.)
		limit = 0
	}
	var m uint64
	for lo, hi := 0, 0; lo < n; lo = hi {
		hi = min(nextCheck(lo), n)
		for i := lo; i < hi; i++ {
			if d := excursionBits(upper[i], lower[i], s[i]); d > m {
				m = d
			}
		}
		// One check per block: the running maximum is monotone, so
		// checking late never changes the outcome, only when the scan
		// stops. NaN and +Inf limits never abandon (`> limit` false).
		if math.Float64frombits(m) > limit {
			return 0, false
		}
	}
	return math.Float64frombits(m), true
}

func sweepAbandonFlatPortable(upper, lower []float64, stride int, s []float64, limit float64, dists []float64) {
	checkSweepShape(len(upper), len(lower), stride, len(s), len(dists))
	for j := range dists {
		lo, hi := j*stride, j*stride+len(s)
		dists[j] = rowDist(distAbandonFlatPortable(upper[lo:hi], lower[lo:hi], s, limit))
	}
}

// sweepWindowsPortable is the candidate sweep with the lane written for
// upper = lower = w: the excursion is |v − w| — the subtraction's bit
// pattern with the sign cleared — and a NaN difference (a NaN operand,
// or equal infinities: exactly the lanes whose two comparisons are both
// false) is the only pattern above +Inf's, so one integer compare sends
// it to +0. Checked every 8 lanes: verification's candidates are near
// misses, decided early or not at all.
func sweepWindowsPortable(data []float64, starts []int32, s []float64, limit float64, dists []float64) {
	dists = checkWindows(len(data), starts, len(s), dists)
	if limit < 0 {
		limit = 0 // see distAbandonFlatPortable: negative limits act as zero
	}
	const signBit, infBits = 1 << 63, 0x7FF << 52
	n := len(s)
row:
	for j, p := range starts {
		w := data[p : int(p)+n]
		var m uint64
		for lo, hi := 0, 0; lo < n; lo = hi {
			hi = min(lo+8, n)
			for i := lo; i < hi; i++ {
				d := math.Float64bits(s[i]-w[i]) &^ signBit
				if d > infBits {
					d = 0
				}
				if d > m {
					m = d
				}
			}
			if math.Float64frombits(m) > limit {
				dists[j] = Abandoned
				continue row
			}
		}
		dists[j] = math.Float64frombits(m)
	}
}

// The float32-bound forms: the same lane (excursionBits on the widened
// bounds), maximum and schedule as the float64 forms above.

func distAbandonFlat32Portable(upper, lower []float32, s []float64, limit float64) (float64, bool) {
	n := len(s)
	upper, lower = upper[:n], lower[:n]
	if limit < 0 {
		limit = 0 // see distAbandonFlatPortable: negative limits act as zero
	}
	var m uint64
	for lo, hi := 0, 0; lo < n; lo = hi {
		hi = min(nextCheck(lo), n)
		for i := lo; i < hi; i++ {
			if d := excursionBits(float64(upper[i]), float64(lower[i]), s[i]); d > m {
				m = d
			}
		}
		if math.Float64frombits(m) > limit {
			return 0, false
		}
	}
	return math.Float64frombits(m), true
}

func sweepAbandonFlat32Portable(upper, lower []float32, stride int, s []float64, limit float64, dists []float64) {
	checkSweepShape(len(upper), len(lower), stride, len(s), len(dists))
	for j := range dists {
		lo, hi := j*stride, j*stride+len(s)
		dists[j] = rowDist(distAbandonFlat32Portable(upper[lo:hi], lower[lo:hi], s, limit))
	}
}

// windowsInside32Portable is the enclosure test as the two comparisons
// of a lane (see "Enclosure"), lane i against the band's lane
// order.at[i]. Unlike the distance kernels it branches: a file being
// opened has every lane inside, so the branch is never taken and never
// mispredicted, and it leaves the arithmetic out.
func windowsInside32Portable(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	n := order.Len()
	checkInside(len(upper), len(lower), len(data), starts, n)
	upper, lower = upper[:n], lower[:n]
	at := order.at
	for _, p := range starts {
		w := data[p : int(p)+n]
		for i, v := range w {
			k := at[i]
			if v > float64(upper[k]) || v < float64(lower[k]) {
				return false
			}
		}
	}
	return true
}

// boundsInside32Portable is the row enclosure test as the two
// comparisons of a lane, over rows cut to the band's length so that no
// lane is bounds-checked. Like windowsInside32Portable it branches: a
// file being opened has every child inside, so the branch is never
// taken. A branch-free form, both comparisons ORed into a flag tested
// once a row, measured about twice as slow on a 2-vCPU Xeon.
func boundsInside32Portable(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	checkBoundsInside(len(upper), len(lower), len(childUpper), len(childLower), n, rows)
	upper, lower = upper[:n], lower[:n]
	for j := 0; j < rows; j++ {
		cu, cl := childUpper[j*n:(j+1)*n], childLower[j*n:(j+1)*n]
		for t, u := range upper {
			if cu[t] > u || cl[t] < lower[t] {
				return false
			}
		}
	}
	return true
}
