// Package kernel holds the distance kernels every pruning decision in
// the TS-Index funnels through — the Eq. 2 sequence-to-MBTS distance
// (DistFlat) and its early-abandoning form (DistAbandonFlat), the
// sibling sweep that scores a run of consecutive bound rows against one
// query in a single forward pass (SweepAbandonFlat — how a leaf verifies
// per-subsequence-normalised candidates laid out as rows: with both
// bounds set to a window, Eq. 2 is the Chebyshev distance to it; its
// float32-bound twin, SweepAbandonFlat32, is how the frozen arena tests
// all of a node's children at once — see "Half-width bounds"), the
// candidate sweep that scores windows of a flat series by start
// position (SweepWindows — how a leaf verifies its candidates, see
// "Candidate windows"), the enclosure tests that a heap open proves
// Lemma 1 with (WindowsInside32 for a leaf's windows, BoundsInside32 for
// an internal node's child rows; see "Enclosure"), the width increase a
// leaf split measures (WidthIncreaseSequence) and the comparison it
// decides by (CompareWidthIncrease), and the one mutating entry point,
// Expand, which grows a band to enclose a sequence (every insert's
// descent step and leaf assignment). The measures between two bands
// that only an internal node's split asks for — Eq. 3, the band width
// and its growth under another band — are plain loops on mbts.MBTS.
//
// The dispatched entry points, the fields of Impl, each have an
// assembly routine and three implementations, all bit-for-bit identical
// on every input:
//
//   - scalar: the original branchy loops, kept as the differential
//     oracle (the semantic reference the repo has shipped since PR 1).
//   - portable: branch-free forms — the per-lane excursion is selected
//     with conditional moves instead of branches, and early
//     abandoning is checked on a schedule instead of per lane — the
//     only semantic *definition*; the assembly must match it.
//   - avx2: hand-written AVX2 assembly (amd64 only), 4 lanes per
//     instruction, one routine per bound width for the sweep and (with
//     one row) the single-row entry points, selected at init when the
//     CPU supports it.
//
// The rest is one function for every dispatch: DistFlat and DistFlat32
// are the abandoning forms at a +Inf limit, and WidthIncreaseSequence
// is one loop.
//
// # The abandon schedule
//
// The abandoning forms compare the running maximum against the limit
// after 8, 16 and 32 lanes, then every 64 (nextCheck). A failing
// Lemma 1 test is nearly always decided in its first cache line, so
// the early checks stop a pruned row before it pulls in the rest of
// its bounds; a surviving row pays three extra compares. The schedule
// is unobservable: the running maximum only grows, so "some prefix
// exceeded the limit" and "the final maximum exceeds the limit" are
// the same event, whenever it is tested.
//
// Dispatch happens once, at package init: the fastest implementation
// the CPU supports becomes Active. The TWINSEARCH_KERNEL environment
// variable forces a specific one ("scalar", "portable", "avx2") so CI
// can run the full test suite under each dispatch path; an unknown or
// unsupported value falls back to the default selection.
//
// # The NaN contract
//
// The kernels inherit the scalar loops' comparison semantics exactly,
// because every comparison is IEEE-ordered (false on NaN):
//
//   - A NaN lane — in the query, or in either bound — contributes
//     excursion 0: both `v > upper[i]` and `v < lower[i]` are false, so
//     the lane never produces a distance. NaN never propagates into the
//     result.
//   - When bounds are inverted (lower[i] > upper[i], never produced by
//     the index but reachable through the raw slice API), the "above"
//     test wins: a value above upper and below lower reports v −
//     upper[i], matching the scalar else-if chain.
//   - A NaN limit never abandons (`d > NaN` is false), and neither
//     does a +Inf limit: DistAbandonFlat returns (DistFlat, true),
//     which is how DistFlat is defined.
//
// Every excursion the select produces is therefore either +0 or a
// strictly positive number (distinct float64s never subtract to zero
// under gradual underflow, and v > u implies v−u > 0), never NaN and
// never −0 — which is what makes the horizontal max in the vector
// kernels order-independent and bit-identical to the sequential scalar
// max.
//
// # Half-width bounds
//
// The frozen arena stores its bounds as float32, rounded outward
// (NarrowUp, NarrowDown): Eq. 2 against a wider box is still a lower
// bound on the distance to everything inside it, so Lemma 1 pruning
// stays sound and only the bytes a traversal streams are halved. The
// three traversal forms have float32-bound entry points for that arena
// (DistFlat32, DistAbandonFlat32, SweepAbandonFlat32), defined in one
// line:
//
//	X32(upper, lower, …) ≡ X(widen(upper), widen(lower), …)   bit for bit
//
// Each bound is widened to float64 as it is loaded (float32 → float64
// is exact) and from there the lane recipe, the schedule and the NaN
// contract above run unchanged, in float64. The query is never
// narrowed and nothing is subtracted in float32: a difference rounded
// to 24 bits can come out above the true excursion, and a bound that
// overshoots prunes a true twin. With exact arithmetic on outward
// bounds there is no error to analyse.
//
// The arena also stores each row's lanes in a spread order rather than
// in time order (internal/core, lanes.go), and the traversals hand
// these entry points the query laid out in that order, with NaN on the
// lanes a shorter query lacks. Nothing here knows: the running maximum
// does not depend on the order of its lanes, and a NaN query lane adds
// excursion 0 (the NaN contract), so a row's distance and whether it
// abandons are what the time-ordered row and query would give. Only
// when the maximum crosses the limit moves: a spread row's first 8
// lanes sample the whole window, so a row that is abandoned mostly is
// at the first check.
//
// # Candidate windows
//
// Verification (paper §3.2) asks, for each window w a surviving leaf
// holds, whether max|s − w| ≤ ε. That is the abandoning form with both
// bounds set to the window, and SweepWindows is defined as exactly that,
// one row per start position of a flat series:
//
//	dists[j] = DistAbandonFlat(w_j, w_j, s, limit),  w_j = data[starts[j]:starts[j]+len(s)]
//
// bit for bit, Abandoned standing for (0, false) — the scalar form is
// that sentence as a loop. With upper = lower = w the two excursions of
// Eq. 2 are v − w above and w − v below, the same magnitude (IEEE
// subtraction is antisymmetric), so a lane is |v − w|: two loads, a
// subtract and a sign-bit clear, against the generic recipe's three
// loads, two subtracts, two compares and three mask operations. |v − w|
// is NaN exactly where the generic lane selects +0 — a NaN operand, or
// equal infinities: both comparisons false — so the NaN contract is one
// more select: the portable form sends the one bit pattern above +Inf's
// to +0, and the assembly takes the maximum with the accumulator as
// VMAXPD's second source, which the instruction returns whenever either
// operand is NaN. The assembly alternates two accumulators to halve
// VMAXPD's dependent chain, and both fast forms check the limit every 8
// lanes — candidates are near misses, decided early or not at all —
// where the row forms wait for 8, 16, 32, then 64; both are
// unobservable, the maximum being order-independent and the schedule
// monotone as above.
//
// # Enclosure
//
// A heap open re-proves Lemma 1 against the supplied series: every leaf
// must enclose its windows, and every internal node its children's
// bounds. That asks for no distance, only whether one is nonzero. The
// leaf's bounds are stored in the arena's lane order and its windows
// are read from the series in time order, so the test takes the order
// (a LaneOrder: window lane i is bounded by band lane at[i]), and
// WindowsInside32 is defined as exactly that:
//
//	WindowsInside32(upper, lower, data, starts, order) ≡ DistFlat32(upper∘at, lower∘at, w_j) == 0 for every j
//
// with w_j = data[starts[j]:starts[j]+n], n = order.Len() and
// (upper∘at)[i] = upper[at[i]]. A lane's excursion is nonzero
// exactly when v > upper[at[i]] or v < lower[at[i]] (the selected
// differences are never ±0, see the NaN contract), so the test is those
// two IEEE-ordered comparisons and no arithmetic: a NaN lane or bound
// is inside, inverted bounds put every ordered lane outside, and the
// scalar form is the definition as a loop. The assembly compares each
// lane's extremes instead of each window: some ordered v_j is above u
// exactly when their maximum is, and below l exactly when their minimum
// is, so for each 16-lane block it folds every window into VMAXPD and
// VMINPD accumulators, in the windows' own lane order — started at
// −Inf and +Inf, with the window as the first Intel source, so a NaN
// lane leaves them alone and a lane NaN in every window compares inside
// — and only then applies the order, in the compare step: it gathers
// the block's bound lanes at[i] (VGATHERDPS, 8 a step), widens them and
// compares, once per block, not once per window. The order costs two
// gathers per 8 lanes of a leaf, against a fold over all its windows;
// laying the bounds out in window order in Go first and testing in the
// identity order was slower (BenchmarkWindowsInside32 "laid-out": 2.25
// against 1.92 µs for 64 windows of 100 lanes on a 2-vCPU Xeon, AVX2).
// It ORs the GT_OQ and LT_OQ masks into one register tested once at the
// end — no branch per window — and reads the n mod 16 lanes a 4-lane
// column at a time through masked loads and gathers, whose +0 lanes
// compare inside. NewLaneOrder checks once that at is a permutation of
// [0, n), so no gather leaves the band. A leaf the test refuses is
// re-checked window by window to name the first window outside, so the
// answer to "which" stays DistFlat32's.
//
// An internal node's children are consecutive bound rows, all float32
// and all in the same lane order as the node's own, and BoundsInside32
// is the same two comparisons lane against lane, needing no order:
//
//	BoundsInside32(upper, lower, cu, cl, n, rows) ≡ no j, i with cu[j·n+i] > upper[i] or cl[j·n+i] < lower[i]
//
// (a NaN on either side is inside, as above). Nothing is widened: the
// assembly compares 8 float32 lanes a step (VCMPPS GT_OQ and LT_OQ),
// ORs the masks across every row, tests once, and reads the n mod 8
// tail of each row and of both bounds through masked loads. A node it
// refuses is re-checked child by child to name the first child outside.
//
// # Expansion
//
// Expand is the scalar loop `if v > u { u = v }; if v < l { l = v }`,
// lane by lane, and every form reproduces it bit for bit: a NaN in s
// changes nothing, a NaN bound stays NaN, and a ±0 the comparison cannot
// order keeps the bound's sign. The assembly gets that from VMAXPD and
// VMINPD with the window as the first Intel source, which the
// instructions define as (v > u) ? v : u and (v < l) ? v : l — the
// bound, their second source, is returned on NaN and on equal zeros.
// The portable form is the scalar loop itself: no branch-free variant
// has been measured faster on a CPU without AVX2.
//
// # Width-increase comparison
//
// A leaf split sends each window to the side whose band it widens less
// (README, "Index construction"), and the descent breaks a tie between
// children at one positive distance the same way. Both ask only for the
// order of two width increases, and CompareWidthIncrease is defined as
// exactly that:
//
//	CompareWidthIncrease(a, b, s) ≡ cmp.Compare(WidthIncreaseSequence(a, s), WidthIncreaseSequence(b, s))
//
// each sum taken in lane order. A sum's terms are Eq. 2 excursions,
// +0 or positive and never NaN (see the NaN contract), so a sum is
// never NaN and the scalar and portable forms are that line as
// written (compareWidthIncrease). Floating-point addition is not
// associative, so no vector form may reorder those sums and return its
// own order's comparison: the tree would change with the CPU.
//
// The assembly sums both sides in one pass over s instead, four lanes
// apart (the LANES recipe with VADDPD where VMAXPD was, one accumulator
// per side), and returns the comparison from those sums sa and sb only
// when it is certain; otherwise it returns the lane-order comparison.
// It is certain when:
//
//   - sa = sb = 0: the answer is 0. A sum of non-negative terms is 0
//     in any order exactly when every term is.
//   - exactly one of them is 0: that side is less, for the same reason.
//   - both are normal and finite, and fl(sa·c) < sb (−1) or
//     fl(sb·c) < sa (+1), with c = 1 + 8n·2⁻⁵³ for n = len(s).
//
// The argument for the last case, with u = 2⁻⁵³ and S a side's exact
// sum:
//
//   - Any order of summing n non-negative terms lands within γ₍ₙ₋₁₎·S
//     of S, γₖ = ku/(1 − ku) (Higham, Accuracy and Stability of
//     Numerical Algorithms, §4.2). The padding lanes of the tail add +0,
//     which is exact.
//   - The terms are bit-identical in both orders: the excursion is the
//     one subtraction the scalar form makes, selected, never rounded
//     again. So the vector sum and the lane-order sum t of one side
//     are within γ₍ₙ₋₁₎·S of the same S, and t ≤ sa·(1+γ)/(1−γ) while
//     t' ≥ sb·(1−γ)/(1+γ) on the other side.
//   - c covers both summation errors and the product's rounding:
//     (1 + 8nu)(1 − u) ≥ ((1+γ₍ₙ₋₁₎)/(1−γ₍ₙ₋₁₎))² for every n below
//     2⁴⁹, so fl(sa·c) < sb implies t < t'. c itself is exact.
//   - Requiring normal, finite sums keeps the product normal, so its
//     relative error is one rounding, u (a subnormal's rounding error is
//     absolute), and leaves out an overflowed sum, which has no error
//     bound at all. Such sums, like the pairs the test cannot separate,
//     take the exact comparison.
//
// Building bench/'s 200 k-window EEG index (L = 100), the test decided
// every one of its 239 015 comparisons, under each normalisation: the
// exact sums are there for the near ties it cannot separate.
package kernel

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
)

// Impl is one complete kernel implementation: the entry points that
// have an assembly routine. All implementations agree bit-for-bit on
// every entry point for every input (enforced by TestKernelDifferential
// and FuzzDistKernels); they differ only in speed.
type Impl struct {
	// Name identifies the implementation: "scalar", "portable", "avx2".
	Name string

	DistAbandonFlat  func(upper, lower, s []float64, limit float64) (float64, bool)
	SweepAbandonFlat func(upper, lower []float64, stride int, s []float64, limit float64, dists []float64)

	// The float32-bound forms of the two above (see "Half-width
	// bounds" in the package comment).
	DistAbandonFlat32  func(upper, lower []float32, s []float64, limit float64) (float64, bool)
	SweepAbandonFlat32 func(upper, lower []float32, stride int, s []float64, limit float64, dists []float64)

	// The candidate sweep (see "Candidate windows").
	SweepWindows func(data []float64, starts []int32, s []float64, limit float64, dists []float64)

	// The enclosure tests (see "Enclosure").
	WindowsInside32 func(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool
	BoundsInside32  func(upper, lower, childUpper, childLower []float32, n, rows int) bool

	// The width-increase comparison (see "Width-increase comparison").
	CompareWidthIncrease func(aUpper, aLower, bUpper, bLower, s []float64) int

	// Expand grows the band in place (see "Expansion").
	Expand func(upper, lower, s []float64)
}

// scalarImpl is the original branchy loops — the differential oracle.
var scalarImpl = Impl{
	Name:                 "scalar",
	DistAbandonFlat:      distAbandonFlatScalar,
	SweepAbandonFlat:     sweepAbandonFlatScalar,
	DistAbandonFlat32:    distAbandonFlat32Scalar,
	SweepAbandonFlat32:   sweepAbandonFlat32Scalar,
	SweepWindows:         sweepWindowsScalar,
	WindowsInside32:      windowsInside32Scalar,
	BoundsInside32:       boundsInside32Scalar,
	CompareWidthIncrease: compareWidthIncrease,
	Expand:               expandScalar,
}

// portableImpl is the branch-free blocked form — the semantic
// definition every other implementation must match bit-for-bit.
var portableImpl = Impl{
	Name:                 "portable",
	DistAbandonFlat:      distAbandonFlatPortable,
	SweepAbandonFlat:     sweepAbandonFlatPortable,
	DistAbandonFlat32:    distAbandonFlat32Portable,
	SweepAbandonFlat32:   sweepAbandonFlat32Portable,
	SweepWindows:         sweepWindowsPortable,
	WindowsInside32:      windowsInside32Portable,
	BoundsInside32:       boundsInside32Portable,
	CompareWidthIncrease: compareWidthIncrease,
	Expand:               expandScalar, // see "Expansion"
}

// active is the dispatched implementation, fixed at init — reads after
// init are safe from any goroutine because nothing writes it again.
var active = selectImpl(os.Getenv("TWINSEARCH_KERNEL"))

// selectImpl maps the TWINSEARCH_KERNEL knob to an implementation:
// empty or unknown selects the fastest the CPU supports; a named
// implementation the hardware cannot run falls back the same way.
func selectImpl(force string) Impl {
	switch force {
	case "scalar":
		return scalarImpl
	case "portable":
		return portableImpl
	case "avx2":
		if hasAVX2 {
			return avx2Impl()
		}
	}
	if hasAVX2 {
		return avx2Impl()
	}
	return portableImpl
}

// Active returns the name of the dispatched implementation ("scalar",
// "portable", "avx2") — surfaced by tsbench and the README's dispatch
// documentation.
func Active() string { return active.Name }

// Impls returns every implementation the current hardware can run,
// oracle first — the set the differential and fuzz tests quantify over.
func Impls() []Impl {
	out := []Impl{scalarImpl, portableImpl}
	if hasAVX2 {
		out = append(out, avx2Impl())
	}
	return out
}

// DistFlat is the paper's Eq. 2 over raw bound slices: the largest
// pointwise excursion of s outside the [lower, upper] band, 0 when s is
// enclosed. upper and lower must have at least len(s) entries. It is
// DistAbandonFlat at a +Inf limit, which never abandons.
func DistFlat(upper, lower, s []float64) float64 {
	d, _ := active.DistAbandonFlat(upper, lower, s, math.Inf(1))
	return d
}

// DistAbandonFlat is DistFlat with early abandoning: (0, false) when
// the distance exceeds limit — decided identically however the running
// maximum is scheduled, because it only grows — and (dist, true)
// otherwise. A NaN or +Inf limit never abandons.
func DistAbandonFlat(upper, lower, s []float64, limit float64) (float64, bool) {
	return active.DistAbandonFlat(upper, lower, s, limit)
}

// Abandoned is what SweepAbandonFlat writes for a row whose distance
// exceeds the limit. Real distances are never negative (nor −0), so
// callers test d < 0.
const Abandoned = -1.0

// SweepAbandonFlat scores len(dists) consecutive bound rows against s
// in one forward pass: row j is [j*stride, j*stride+len(s)) of upper
// and of lower — how the frozen arena stores a node's children — and
// dists[j] receives what DistAbandonFlat would return for it, the
// exact distance or Abandoned when it exceeds limit. stride > len(s)
// scores a prefix of each row. It panics, before reading any lane, when
// len(s) > stride or either array is shorter than the last row's end.
//
// The dispatch is a direct call per implementation, not a call through
// active, so a caller's stack-allocated dists does not escape.
func SweepAbandonFlat(upper, lower []float64, stride int, s []float64, limit float64, dists []float64) {
	switch active.Name {
	case "avx2":
		sweepAbandonFlatAVX2(upper, lower, stride, s, limit, dists)
	case "portable":
		sweepAbandonFlatPortable(upper, lower, stride, s, limit, dists)
	default:
		sweepAbandonFlatScalar(upper, lower, stride, s, limit, dists)
	}
}

// DistFlat32 is DistFlat against float32 bounds, each widened as it is
// loaded: DistFlat32(u, l, s) ≡ DistFlat(widen(u), widen(l), s) — and,
// likewise, DistAbandonFlat32 at a +Inf limit.
func DistFlat32(upper, lower []float32, s []float64) float64 {
	d, _ := active.DistAbandonFlat32(upper, lower, s, math.Inf(1))
	return d
}

// DistAbandonFlat32 is DistAbandonFlat against float32 bounds. Direct
// dispatch, as SweepAbandonFlat: a traversal's stack-held query does not
// escape through it.
func DistAbandonFlat32(upper, lower []float32, s []float64, limit float64) (float64, bool) {
	switch active.Name {
	case "avx2":
		return distAbandonFlat32AVX2(upper, lower, s, limit)
	case "portable":
		return distAbandonFlat32Portable(upper, lower, s, limit)
	default:
		return distAbandonFlat32Scalar(upper, lower, s, limit)
	}
}

// SweepAbandonFlat32 is SweepAbandonFlat against float32 bound rows —
// the frozen arena's child test. Same shape rules, same direct
// dispatch.
func SweepAbandonFlat32(upper, lower []float32, stride int, s []float64, limit float64, dists []float64) {
	switch active.Name {
	case "avx2":
		sweepAbandonFlat32AVX2(upper, lower, stride, s, limit, dists)
	case "portable":
		sweepAbandonFlat32Portable(upper, lower, stride, s, limit, dists)
	default:
		sweepAbandonFlat32Scalar(upper, lower, stride, s, limit, dists)
	}
}

// SweepWindows scores the windows of data starting at starts against s
// in one call — a leaf's candidates, addressed by position instead of
// by stride: dists[j] receives DistAbandonFlat(w, w, s, limit) for
// w = data[starts[j] : starts[j]+len(s)], the exact max|s − w| or
// Abandoned when it exceeds limit. It panics, before reading any lane,
// on a start outside [0, len(data)−len(s)] or when dists is shorter
// than starts. Direct dispatch, as SweepAbandonFlat.
func SweepWindows(data []float64, starts []int32, s []float64, limit float64, dists []float64) {
	switch active.Name {
	case "avx2":
		sweepWindowsAVX2(data, starts, s, limit, dists)
	case "portable":
		sweepWindowsPortable(data, starts, s, limit, dists)
	default:
		sweepWindowsScalar(data, starts, s, limit, dists)
	}
}

// WindowsInside32 reports whether the band [lower, upper], its lanes
// stored in order, encloses every window w = data[p : p+n], p in starts
// and n = order.Len(): no lane i of any window above upper[at[i]] or
// below lower[at[i]], at the permutation order was made from, compared
// as IEEE orders them, so a NaN lane or bound is inside. It is defined
// as DistFlat32(upper∘at, lower∘at, w) == 0 for every window (see
// "Enclosure"). It panics, before reading any lane, on a start outside
// [0, len(data)−n] or when either bound is shorter than n. Direct
// dispatch, as SweepAbandonFlat.
func WindowsInside32(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	switch active.Name {
	case "avx2":
		return windowsInside32AVX2(upper, lower, data, starts, order)
	case "portable":
		return windowsInside32Portable(upper, lower, data, starts, order)
	default:
		return windowsInside32Scalar(upper, lower, data, starts, order)
	}
}

// LaneOrder is how a band's lanes are stored relative to the windows it
// bounds: lane i of a window is bounded by lane at[i] of the band. Only
// NewLaneOrder makes one, and it holds a permutation of [0, Len()), so
// every lane the enclosure test reads through it lies inside the band;
// the zero LaneOrder orders no lanes.
type LaneOrder struct{ at []int32 }

// NewLaneOrder returns the order in which lane i of a window is bounded
// by lane at[i] of the band, copying at. It panics unless at is a
// permutation of [0, len(at)).
func NewLaneOrder(at []int32) LaneOrder {
	seen := make([]bool, len(at))
	for i, k := range at {
		if k < 0 || int(k) >= len(at) || seen[k] {
			panic(fmt.Sprintf("kernel: lane order maps lane %d to %d, not a permutation of [0, %d)", i, k, len(at)))
		}
		seen[k] = true
	}
	return LaneOrder{at: slices.Clone(at)}
}

// Len returns the number of lanes the order covers.
func (o LaneOrder) Len() int { return len(o.at) }

// BoundsInside32 reports whether the band [lower, upper] encloses rows
// consecutive bound rows of n lanes — row j is [j·n, (j+1)·n) of
// childUpper and of childLower, an internal node's children as the
// frozen arena stores them: no child upper lane above upper and no
// child lower lane below lower, compared as IEEE orders them, so a NaN
// on either side is inside (see "Enclosure"). It panics, before reading
// any lane, when either bound is shorter than n or either child array
// than rows·n. Direct dispatch, as SweepAbandonFlat.
func BoundsInside32(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	switch active.Name {
	case "avx2":
		return boundsInside32AVX2(upper, lower, childUpper, childLower, n, rows)
	case "portable":
		return boundsInside32Portable(upper, lower, childUpper, childLower, n, rows)
	default:
		return boundsInside32Scalar(upper, lower, childUpper, childLower, n, rows)
	}
}

// checkBoundsInside rejects a row enclosure test whose bounds or child
// rows would not hold n lanes each — in the assembly an out-of-bounds
// read.
func checkBoundsInside(nUpper, nLower, nChildUpper, nChildLower, n, rows int) {
	if n < 0 || rows < 0 || nUpper < n || nLower < n ||
		(n > 0 && (nChildUpper/n < rows || nChildLower/n < rows)) {
		panic(fmt.Sprintf("kernel: enclosure of %d rows of %d lanes, have %d/%d bounds and %d/%d child bounds",
			rows, n, nUpper, nLower, nChildUpper, nChildLower))
	}
}

// checkWindows rejects a candidate sweep with a window outside data —
// in the assembly an out-of-bounds read — and returns dists cut to one
// entry per start.
func checkWindows(nData int, starts []int32, n int, dists []float64) []float64 {
	checkStarts(nData, starts, n)
	return dists[:len(starts)]
}

// checkStarts rejects a window outside data.
func checkStarts(nData int, starts []int32, n int) {
	for _, p := range starts {
		if p < 0 || int(p) > nData-n {
			panic(fmt.Sprintf("kernel: window of %d lanes at %d outside a series of %d", n, p, nData))
		}
	}
}

// checkInside rejects an enclosure test whose windows or bounds would
// not hold n lanes — in the assembly an out-of-bounds read.
func checkInside(nUpper, nLower, nData int, starts []int32, n int) {
	if n < 0 || nUpper < n || nLower < n {
		panic(fmt.Sprintf("kernel: enclosure of %d lanes, have %d upper and %d lower bounds", n, nUpper, nLower))
	}
	checkStarts(nData, starts, n)
}

// checkSweepShape rejects a sweep whose rows would not all lie inside
// both arrays — with a row API a wrong-length query would otherwise be
// a silently wrong answer (a short s reads a prefix of each row) or,
// in the assembly, an out-of-bounds read.
func checkSweepShape(nUpper, nLower, stride, n, rows int) {
	if n > stride {
		panic(fmt.Sprintf("kernel: sweep of %d lanes over rows of stride %d", n, stride))
	}
	if rows == 0 {
		return
	}
	if need := (rows-1)*stride + n; nUpper < need || nLower < need {
		panic(fmt.Sprintf("kernel: sweep of %d rows (stride %d, %d lanes) needs %d bounds, have %d upper and %d lower",
			rows, stride, n, need, nUpper, nLower))
	}
}

// rowDist is a sweep's entry for one row: the distance, or Abandoned
// when the row abandoned. The scalar and portable sweeps are each their
// single-row form in a loop through it, written out per form rather
// than shared as a loop over a row function: the call through a
// function value would make every sweep's query escape, and a
// traversal's stack-held query with it.
func rowDist(d float64, ok bool) float64 {
	if !ok {
		return Abandoned
	}
	return d
}

// WidthIncreaseSequence is how much the band's total width Σ_i
// (upper[i] − lower[i]) would grow if s were enclosed: the sum, in lane
// order, of s's Eq. 2 excursions. It is one loop for every dispatch,
// the branch-free lane of the portable kernels: whether a lane excurses
// is a coin toss, and two such sums, compared, took 370–410 ns on 100
// rotating lanes against the branchy loop's 680–810 ns (a 2-vCPU Xeon).
// Adding the +0 a non-excursing lane selects is bit-identical to
// skipping the add: the sum starts at +0 and only non-negative terms
// join it.
func WidthIncreaseSequence(upper, lower, s []float64) float64 {
	upper, lower = upper[:len(s)], lower[:len(s)]
	var inc float64
	for i, v := range s {
		inc += math.Float64frombits(excursionBits(upper[i], lower[i], v))
	}
	return inc
}

// CompareWidthIncrease reports which of two bands s widens less: the
// sign of WidthIncreaseSequence(aUpper, aLower, s) −
// WidthIncreaseSequence(bUpper, bLower, s), −1, 0 or +1, both sums
// taken in lane order and two +Inf sums equal — what a leaf split and
// the descent's tie break decide by, without summing each side
// sequentially when a faster sum certainly agrees (see "Width-increase
// comparison"). Every bound must have at least len(s) lanes.
func CompareWidthIncrease(aUpper, aLower, bUpper, bLower, s []float64) int {
	return active.CompareWidthIncrease(aUpper, aLower, bUpper, bLower, s)
}

// compareWidthIncrease is the width-increase comparison as written: two
// lane-order sums, compared — the scalar and portable forms, and the
// assembly's answer when its own sums cannot decide. A pure-Go filter
// summing four lanes apart with the assembly's certain-apart test
// measured slower, 500–650 against 390–440 ns for 100 lanes: the loop
// is bound by instruction count, not by the add chain.
func compareWidthIncrease(aUpper, aLower, bUpper, bLower, s []float64) int {
	return cmp.Compare(WidthIncreaseSequence(aUpper, aLower, s), WidthIncreaseSequence(bUpper, bLower, s))
}

// Expand grows [lower, upper] in place just enough to enclose s, lane by
// lane: upper[i] = (s[i] > upper[i]) ? s[i] : upper[i], and lower[i]
// likewise with <. Lanes past len(s) are untouched; it panics when
// either bound is shorter than s. Direct dispatch, as SweepAbandonFlat;
// the portable form is the scalar loop (see "Expansion").
func Expand(upper, lower, s []float64) {
	if active.Name == "avx2" {
		expandAVX2(upper, lower, s)
		return
	}
	expandScalar(upper, lower, s)
}
