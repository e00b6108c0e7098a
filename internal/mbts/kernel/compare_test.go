package kernel

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// comparers is every implementation's CompareWidthIncrease plus the
// dispatched entry point, by name.
func comparers() map[string]func(aUpper, aLower, bUpper, bLower, s []float64) int {
	fs := map[string]func(aUpper, aLower, bUpper, bLower, s []float64) int{"dispatched": CompareWidthIncrease}
	for _, im := range Impls() {
		fs[im.Name] = im.CompareWidthIncrease
	}
	return fs
}

// laneOrderIncrease is a width increase by its definition: each lane's
// Eq. 2 excursion — the scalar oracle's distance over that one lane —
// summed in lane order.
func laneOrderIncrease(upper, lower, s []float64) float64 {
	var inc float64
	for i := range s {
		d, _ := distAbandonFlatScalar(upper[i:i+1], lower[i:i+1], s[i:i+1], math.Inf(1))
		inc += d
	}
	return inc
}

// compareDefinition is the comparison as the package comment defines
// it: both increases summed in lane order.
func compareDefinition(aUpper, aLower, bUpper, bLower, s []float64) int {
	return cmp.Compare(laneOrderIncrease(aUpper, aLower, s), laneOrderIncrease(bUpper, bLower, s))
}

// checkCompare holds every form to the definition, both ways round.
func checkCompare(t *testing.T, aUpper, aLower, bUpper, bLower, s []float64) {
	t.Helper()
	want, wantSwapped := compareDefinition(aUpper, aLower, bUpper, bLower, s), compareDefinition(bUpper, bLower, aUpper, aLower, s)
	for name, compare := range comparers() {
		if got := compare(aUpper, aLower, bUpper, bLower, s); got != want {
			t.Fatalf("%s(a, b) = %d, lane-order sums %v and %v compare %d (n=%d a=[%v %v] b=[%v %v] s=%v)",
				name, got, laneOrderIncrease(aUpper, aLower, s), laneOrderIncrease(bUpper, bLower, s),
				want, len(s), aUpper, aLower, bUpper, bLower, s)
		}
		if got := compare(bUpper, bLower, aUpper, aLower, s); got != wantSwapped {
			t.Fatalf("%s(b, a) = %d, lane-order comparison %d (n=%d a=[%v %v] b=[%v %v] s=%v)",
				name, got, wantSwapped, len(s), aUpper, aLower, bUpper, bLower, s)
		}
	}
}

// TestCompareWidthIncreaseDifferential compares the bands of
// TestKernelDifferential's adversarial inputs, hostile lanes included,
// at lengths across the 4-lane step, and pairs of bands whose sums
// differ only in the order of their terms, which the certain-apart test
// must leave to the exact sums.
func TestCompareWidthIncreaseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 100, 101, 102, 103} {
		for trial := 0; trial < 200; trial++ {
			au, al, s := trialData(rng, n)
			bu, bl, _ := trialData(rng, n)
			if trial%2 == 1 && n > 0 {
				hostileLanes(rng, au, al, bu, bl, s)
			}
			checkCompare(t, au, al, bu, bl, s)
		}
	}
	for _, n := range []int{4, 5, 8, 13, 100, 101} {
		for trial := 0; trial < 200; trial++ {
			// With s = 0 and a band [t, t], a lane's excursion is t.
			ta := make([]float64, n)
			for i := range ta {
				ta[i] = math.Ldexp(1+rng.Float64(), -rng.Intn(60))
			}
			tb := append([]float64(nil), ta...)
			rng.Shuffle(n, func(i, j int) { tb[i], tb[j] = tb[j], tb[i] })
			checkCompare(t, ta, ta, tb, tb, make([]float64, n))
		}
	}
}

// TestCompareWidthIncreaseGuard requires every form to panic, rather
// than read out of bounds, on a bound shorter than s.
func TestCompareWidthIncreaseGuard(t *testing.T) {
	for name, compare := range comparers() {
		for short := 0; short < 4; short++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: bound %d of 4 lanes for 5 values: no panic", name, short)
					}
				}()
				bounds := [4][]float64{}
				for i := range bounds {
					bounds[i] = make([]float64, 5)
				}
				bounds[short] = make([]float64, 4)
				compare(bounds[0], bounds[1], bounds[2], bounds[3], make([]float64, 5))
			}()
		}
	}
}

// FuzzCompareWidthIncrease feeds raw bytes as (aUpper, aLower, bUpper,
// bLower, s) lanes — any bit pattern — and requires every
// implementation's CompareWidthIncrease, and the dispatched entry
// point, to return the lane-order comparison, both ways round.
func FuzzCompareWidthIncrease(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	// terms adds two bands whose excursions from s = 0 are ta and tb
	// lane by lane: a band [t, t] lies t above 0.
	terms := func(ta, tb []float64) {
		vals := append(append(append(append([]float64{}, ta...), ta...), tb...), tb...)
		f.Add(mk(append(vals, make([]float64, len(ta))...)...), len(ta))
	}
	nan, inf := math.NaN(), math.Inf(1)
	tiny, ulp := math.SmallestNonzeroFloat64, 0x1p-52
	// Seeds. Exact ties: both sums 0, and the same excursions in
	// permuted lanes — (2⁻⁵³, 1, 2⁻⁵³, 0) and (1, 2⁻⁵³, 2⁻⁵³, 0) both sum
	// to 1 in lane order, while four lanes apart they sum to 1 + 2⁻⁵² and
	// 1, so comparing those sums alone, or with no margin, is wrong.
	f.Add(mk(1, 1, 1, -1, -1, -1, 2, 2, 2, -2, -2, -2, 0, 0.5, -0.5), 3)
	terms([]float64{0x1p-53, 1, 0x1p-53, 0}, []float64{1, 0x1p-53, 0x1p-53, 0})
	terms([]float64{0x1p-53, 1, 0x1p-53, 0, 0x1p-53, 0x1p-53, 0x1p-53},
		[]float64{1, 0x1p-53, 0x1p-53, 0, 0x1p-53, 0x1p-53, 0x1p-53})
	// Near ties one ulp apart, and sums of subnormals only.
	terms([]float64{1}, []float64{1 + ulp})
	terms([]float64{0.5, 0.5}, []float64{0.5, 0.5 + ulp/2})
	terms([]float64{tiny, tiny, 3 * tiny}, []float64{5 * tiny, 0, 0})
	terms([]float64{tiny, 0, tiny, 0, tiny, 0}, []float64{0, 0, 0, 0, 0, 2 * tiny})
	// Excursions that overflow to +Inf, in a lane and in the sum.
	f.Add(mk(-math.MaxFloat64, -math.MaxFloat64, 0, 0, math.MaxFloat64), 1)
	terms([]float64{math.MaxFloat64, math.MaxFloat64}, []float64{math.MaxFloat64, 1})
	terms([]float64{inf, 1, 2}, []float64{1, inf, 2})
	// NaN lanes in s and in each bound, and inverted bounds.
	f.Add(mk(nan, 1, 0, 1, -1, nan, 1, 0, 1, -1), 2)
	f.Add(mk(1, 1, 1, 1, nan, 3, -1, -1, -1, -1, nan, -3, 0, 5, -5, 2, 3, 0, 0, 0, 0, 0, nan, 0, 0, 7, -7, 1, 9, 0), 6)
	// Every n mod 4 past the first step, with lanes on either side.
	for _, n := range []int{5, 6, 8, 101} {
		vals := make([]float64, 5*n)
		for i := range vals {
			vals[i] = float64(i%9)/4 - 1
		}
		f.Add(mk(vals...), n)
	}

	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n < 0 || n > 256 || len(raw) < 8*5*n {
			return
		}
		at := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		lanes := make([][]float64, 5)
		for k := range lanes {
			lanes[k] = make([]float64, n)
			for i := range lanes[k] {
				lanes[k][i] = at(k*n + i)
			}
		}
		checkCompare(t, lanes[0], lanes[1], lanes[2], lanes[3], lanes[4])
	})
}
