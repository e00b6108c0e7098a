//go:build amd64

package kernel

import "math"

// Runtime CPU-feature detection for the AVX2 kernels. The queries go
// straight to CPUID/XGETBV (implemented in dist_amd64.s) — the runtime
// keeps its own answers in an unexported package, and the project bakes
// in no third-party cpu package — and follow the full protocol: the CPU
// must report AVX2 (leaf 7), the instruction set must be usable (leaf 1
// AVX + OSXSAVE), and the OS must have enabled XMM+YMM state saving
// (XCR0 bits 1–2), or the vector registers would be corrupted across
// context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// avx2Impl vectorizes the query-time hot path — every descent, Lemma 1
// test, and top-k bound funnels through the Eq. 2 sweep — the heap
// open's enclosure tests, and the build's expansion and width-increase
// comparison.
func avx2Impl() Impl {
	return Impl{
		Name:                 "avx2",
		DistAbandonFlat:      distAbandonFlatAVX2,
		SweepAbandonFlat:     sweepAbandonFlatAVX2,
		DistAbandonFlat32:    distAbandonFlat32AVX2,
		SweepAbandonFlat32:   sweepAbandonFlat32AVX2,
		SweepWindows:         sweepWindowsAVX2,
		WindowsInside32:      windowsInside32AVX2,
		BoundsInside32:       boundsInside32AVX2,
		CompareWidthIncrease: compareWidthIncreaseAVX2,
		Expand:               expandAVX2,
	}
}

// sweepKernelAVX2 is the one assembly kernel: for each of rows
// consecutive bound rows (row j at upper+j*stride, lower+j*stride) it
// takes the Eq. 2 running maximum over n lanes against s, 4 lanes per
// instruction (the n mod 4 tail through a masked load), checking the
// accumulated maxima against limit on the graduated schedule, and
// writes dists[j]: the exact maximum — bit-identical to the portable
// form because no lane value is ever NaN or −0, making VMAXPD's
// asymmetries unobservable — or Abandoned as soon as a check fires. A
// +Inf or NaN limit turns the checks off. rows must be positive and
// limit non-negative or NaN.
//
//go:noescape
func sweepKernelAVX2(upper, lower *float64, stride int, s *float64, n int, limit float64, dists *float64, rows int)

// sweepKernel32AVX2 is sweepKernelAVX2 over float32 bound rows: every
// bound is widened to float64 in the register it is loaded into, and
// the arithmetic from there on is the float64 routine's, instruction
// for instruction — so its results are sweepKernelAVX2's on the widened
// arrays, bit for bit.
//
//go:noescape
func sweepKernel32AVX2(upper, lower *float32, stride int, s *float64, n int, limit float64, dists *float64, rows int)

// sweepWindowsKernelAVX2 is the candidate sweep: row j is the n lanes
// of data at starts[j], both bounds of Eq. 2 at once, so a lane is
// |s − w| (see "Candidate windows" in the package comment — the NaN
// contract is carried by VMAXPD's operand order). Two accumulators take
// alternate steps, the limit is checked every 8 lanes, and the n mod 4
// tail goes through a masked load, so nothing past a window's last lane
// is read. Results as sweepKernelAVX2: the exact maximum or Abandoned.
// rows must be positive, every start a window inside data, and limit
// non-negative or NaN.
//
//go:noescape
func sweepWindowsKernelAVX2(data *float64, starts *int32, s *float64, n int, limit float64, dists *float64, rows int)

// windowsInside32KernelAVX2 is the enclosure test by lane extremes: for
// each 16-lane block it folds the block's lanes of every one of rows
// windows (window j is the n lanes of data at starts[j]) into running
// maxima and minima, NaN lanes skipped, then gathers both bounds' lanes
// at[i] for the block's lanes i, widens them from float32 as
// sweepKernel32AVX2 widens them, compares, and ORs the GT_OQ and LT_OQ
// masks into one accumulator that is tested once, after the last block
// (see "Enclosure" in the package comment). The n mod 16 lanes go a
// 4-lane column at a time through masked loads and masked gathers, so
// nothing past a window's, a bound's or the order's last lane is read;
// masked-out lanes load +0 and compare inside. It reports whether no
// lane was outside. rows and n must be positive, every start a window
// inside data, and at a permutation of [0, n).
//
//go:noescape
func windowsInside32KernelAVX2(upper, lower *float32, at *int32, data *float64, starts *int32, n int, rows int) bool

// boundsInside32KernelAVX2 is the row enclosure test: for each of rows
// consecutive child rows of n float32 lanes (row j at childUpper+j*n,
// childLower+j*n) it compares 8 lanes a step, child upper GT_OQ upper
// and child lower LT_OQ lower, with no widening, and ORs both masks
// into one accumulator that is tested once, after the last row (see
// "Enclosure" in the package comment). The n mod 8 tail of every row
// and of both bounds goes through masked loads, so nothing past a row's
// last lane is read; masked-out lanes load +0 and compare inside. It
// reports whether no lane was outside. rows and n must be positive.
//
//go:noescape
func boundsInside32KernelAVX2(upper, lower, childUpper, childLower *float32, n, rows int) bool

// expandKernelAVX2 grows the n lanes of upper and lower to enclose s,
// 4 lanes per step: VMAXPD and VMINPD with s as the first Intel source
// (see "Expansion" in the package comment), both bounds stored back.
// The n mod 4 tail is loaded and stored through a mask, so nothing past
// lane n is read or written. n must be positive.
//
//go:noescape
func expandKernelAVX2(upper, lower, s *float64, n int)

// widthIncreasePairAVX2 sums the Eq. 2 excursions of the n lanes of s
// outside both bands, [aLower, aUpper] into sa and [bLower, bUpper]
// into sb, in one pass: 4 lanes per step, each side's lane i added to
// its accumulator's slot i mod 4, the slots then added (s0+s2)+(s1+s3).
// The terms are the scalar form's bit for bit; only the order of the
// additions differs (see "Width-increase comparison" in the package
// comment). The n mod 4 tail goes through a masked load, whose +0
// lanes add +0. n must be positive.
//
//go:noescape
func widthIncreasePairAVX2(aUpper, aLower, bUpper, bLower, s *float64, n int) (sa, sb float64)

// cpuidAsm executes CPUID with EAX=op, ECX=sub.
func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

func sweepAbandonFlatAVX2(upper, lower []float64, stride int, s []float64, limit float64, dists []float64) {
	checkSweepShape(len(upper), len(lower), stride, len(s), len(dists))
	if len(dists) == 0 {
		return
	}
	if len(s) == 0 {
		clear(dists) // no lanes: every row is at distance 0
		return
	}
	if limit < 0 {
		limit = 0 // see distAbandonFlatPortable: negative limits act as zero
	}
	sweepKernelAVX2(&upper[0], &lower[0], stride, &s[0], len(s), limit, &dists[0], len(dists))
}

func sweepWindowsAVX2(data []float64, starts []int32, s []float64, limit float64, dists []float64) {
	dists = checkWindows(len(data), starts, len(s), dists)
	if len(starts) == 0 {
		return
	}
	if len(s) == 0 {
		clear(dists) // no lanes: every window is at distance 0
		return
	}
	if limit < 0 {
		limit = 0 // see distAbandonFlatPortable: negative limits act as zero
	}
	sweepWindowsKernelAVX2(&data[0], &starts[0], &s[0], len(s), limit, &dists[0], len(starts))
}

func windowsInside32AVX2(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	n := order.Len()
	checkInside(len(upper), len(lower), len(data), starts, n)
	if len(starts) == 0 || n == 0 {
		return true // no lanes: every window is at distance 0
	}
	return windowsInside32KernelAVX2(&upper[0], &lower[0], &order.at[0], &data[0], &starts[0], n, len(starts))
}

func boundsInside32AVX2(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	checkBoundsInside(len(upper), len(lower), len(childUpper), len(childLower), n, rows)
	if rows == 0 || n == 0 {
		return true // no lanes: nothing can be outside
	}
	return boundsInside32KernelAVX2(&upper[0], &lower[0], &childUpper[0], &childLower[0], n, rows)
}

func expandAVX2(upper, lower, s []float64) {
	n := len(s)
	if n == 0 {
		return
	}
	upper, lower = upper[:n], lower[:n]
	expandKernelAVX2(&upper[0], &lower[0], &s[0], n)
}

// compareWidthIncreaseAVX2 decides from the assembly's sums when they
// are certainly apart and falls back to the lane-order comparison
// otherwise (see "Width-increase comparison").
func compareWidthIncreaseAVX2(aUpper, aLower, bUpper, bLower, s []float64) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	aUpper, aLower, bUpper, bLower = aUpper[:n], aLower[:n], bUpper[:n], bLower[:n]
	sa, sb := widthIncreasePairAVX2(&aUpper[0], &aLower[0], &bUpper[0], &bLower[0], &s[0], n)
	if order, ok := certainlyApart(sa, sb, n); ok {
		return order
	}
	return compareWidthIncrease(aUpper, aLower, bUpper, bLower, s)
}

// certainlyApart returns the order of two lane-order width increases
// from sums sa and sb of the same n terms each, added in another order,
// with ok false when those sums cannot decide it.
func certainlyApart(sa, sb float64, n int) (order int, ok bool) {
	switch {
	case sa == 0 && sb == 0:
		return 0, true
	case sa == 0:
		return -1, true
	case sb == 0:
		return 1, true
	}
	normal := func(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }
	if !normal(sa) || !normal(sb) {
		return 0, false
	}
	c := 1 + float64(8*n)*0x1p-53
	switch {
	case sa*c < sb:
		return -1, true
	case sb*c < sa:
		return 1, true
	}
	return 0, false
}

// The single-row entry points are the sweep kernel with one row, called
// directly: they run once per candidate and per build-time descent step,
// where the sweep wrapper's shape check and slice-backed result would
// be a measurable share of a 100-lane call.

func distAbandonFlatAVX2(upper, lower, s []float64, limit float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, true
	}
	upper, lower = upper[:n], lower[:n]
	if limit < 0 {
		limit = 0
	}
	var d float64
	sweepKernelAVX2(&upper[0], &lower[0], n, &s[0], n, limit, &d, 1)
	if d < 0 {
		return 0, false
	}
	return d, true
}

// The float32-bound entry points, wrapped exactly as the float64 ones.

func sweepAbandonFlat32AVX2(upper, lower []float32, stride int, s []float64, limit float64, dists []float64) {
	checkSweepShape(len(upper), len(lower), stride, len(s), len(dists))
	if len(dists) == 0 {
		return
	}
	if len(s) == 0 {
		clear(dists)
		return
	}
	if limit < 0 {
		limit = 0
	}
	sweepKernel32AVX2(&upper[0], &lower[0], stride, &s[0], len(s), limit, &dists[0], len(dists))
}

func distAbandonFlat32AVX2(upper, lower []float32, s []float64, limit float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, true
	}
	upper, lower = upper[:n], lower[:n]
	if limit < 0 {
		limit = 0
	}
	var d float64
	sweepKernel32AVX2(&upper[0], &lower[0], n, &s[0], n, limit, &d, 1)
	if d < 0 {
		return 0, false
	}
	return d, true
}
