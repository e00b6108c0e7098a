package core

// The stored lane order. Every bound row of the arena holds its L lanes
// in one fixed spread order, not in time order: stored lane k holds
// series lane π(k) = k·s mod L, where s is the smallest integer ≥ ⌈L/8⌉
// coprime to L (so π is a bijection, and π(0) = 0). A window's first
// lanes are nearly equal, so a row stored in time order that Lemma 1
// rejects is rejected late: the kernels check the running maximum after
// 8, 16, 32 lanes, then every 64, and the first checks saw lanes that
// barely differ. In spread order the first 8 stored lanes sample the
// whole window, L/8 apart, and most rejected rows are decided at the
// first check, in their first cache line.
//
// The order is not an option: freeze writes it, the format version
// records it, and each traversal maps its query into it once
// (storedQuery). The Eq. 2 maximum does not depend on the order of its
// lanes, so every prune decision, node distance, answer and counter is
// the one time order gives, bit for bit. A query shorter than L fills
// the stored lanes of series lanes ≥ ℓ with NaN, which adds excursion 0
// under the kernels' NaN contract, so Eq. 2 still covers exactly its
// first ℓ lanes. Verification reads the series, in series order; only
// the heap open's leaf enclosure test pairs series lanes with stored
// bounds, through kernel.LaneOrder.

import (
	"math"

	"twinsearch/internal/mbts/kernel"
)

// laneStride is s for rows of l lanes: the smallest integer ≥ ⌈l/8⌉
// with gcd(s, l) = 1.
func laneStride(l int) int {
	s := max((l+7)/8, 1)
	for gcd(s, l) != 1 {
		s++
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LaneOrder returns π for rows of l lanes: entry k is the series lane
// that stored lane k of every bound row holds.
func LaneOrder(l int) []int32 {
	order := make([]int32, l)
	s, i := laneStride(l), 0
	for k := range order {
		order[k] = int32(i)
		if i += s; i >= l {
			i -= l
		}
	}
	return order
}

// boundsOrder is the kernel's view of π for rows of l lanes: series lane
// i of a window is bounded by stored lane π⁻¹(i).
func boundsOrder(l int) kernel.LaneOrder {
	at := make([]int32, l)
	for k, i := range LaneOrder(l) {
		at[i] = int32(k)
	}
	return kernel.NewLaneOrder(at)
}

// storedQuery lays q (1 ≤ len(q) ≤ l) out in stored order in dst,
// reusing dst's array when its capacity allows, as append does: entry k
// is q[π(k)], or NaN where π(k) ≥ len(q).
func storedQuery(dst, q []float64, l int) []float64 {
	if cap(dst) < l {
		dst = make([]float64, l)
	}
	dst = dst[:l]
	s, i := laneStride(l), 0
	for k := range dst {
		if i < len(q) {
			dst[k] = q[i]
		} else {
			dst[k] = math.NaN()
		}
		if i += s; i >= l {
			i -= l
		}
	}
	return dst
}
