package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// expanders is every implementation's Expand plus the dispatched entry
// point, by name.
func expanders() map[string]func(upper, lower, s []float64) {
	fs := map[string]func(upper, lower, s []float64){"dispatched": Expand}
	for _, im := range Impls() {
		fs[im.Name] = im.Expand
	}
	return fs
}

// expandSentinel fills the lanes past len(s) that no form may touch.
const expandSentinel = 12345.0

// checkExpand runs every expander on copies of (u, l) padded with three
// sentinel lanes and bit-compares both bounds, padding included, with
// the scalar loop's.
func checkExpand(t *testing.T, u, l, s []float64) {
	t.Helper()
	pad := func(a []float64) []float64 {
		out := append(make([]float64, 0, len(a)+3), a...)
		return append(out, expandSentinel, expandSentinel, expandSentinel)
	}
	wantU, wantL := pad(u), pad(l)
	expandScalar(wantU, wantL, s)
	for name, expand := range expanders() {
		gotU, gotL := pad(u), pad(l)
		expand(gotU, gotL, s)
		for i := range gotU {
			if !bitsEq(gotU[i], wantU[i]) || !bitsEq(gotL[i], wantL[i]) {
				t.Fatalf("%s lane %d of %d: (upper %v %x, lower %v %x), scalar (%v %x, %v %x) (v=%v)",
					name, i, len(s), gotU[i], math.Float64bits(gotU[i]), gotL[i], math.Float64bits(gotL[i]),
					wantU[i], math.Float64bits(wantU[i]), wantL[i], math.Float64bits(wantL[i]), laneOf(s, i))
			}
		}
	}
}

func laneOf(s []float64, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "past the end"
}

// expandLanes are the values the expansion contract singles out: NaN
// payloads (quiet, signalling, negative, all-ones), both zeros, both
// infinities, subnormals and the extremes of the finite range.
var expandLanes = []float64{
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF0000000000001),
	math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1023, -0x1p-1023,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// TestExpandDifferential bit-compares every implementation's Expand,
// and the dispatched entry point, with the scalar loop: bands that s
// crosses on either side, inverted bands, and lanes drawn from
// expandLanes in s and in both bounds — every pairing of two of them,
// ±0 against ±0 and NaN against NaN included — at every n mod 4, across
// the 4-lane step, with sentinel lanes past n no form may write.
func TestExpandDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 100, 101, 102, 103} {
		for trial := 0; trial < 200; trial++ {
			u, l, s := trialData(rng, n)
			if trial%2 == 1 {
				for _, a := range [][]float64{u, l, s} {
					for i := range a {
						if rng.Intn(3) == 0 {
							a[i] = expandLanes[rng.Intn(len(expandLanes))]
						}
					}
				}
			}
			checkExpand(t, u, l, s)
		}
	}
	// Every (bound, value) pairing of the contract's lanes, once as the
	// upper and lower bound of the same band, on a band of 5 lanes so a
	// pairing lands in the tail as well as in a whole step.
	for _, b := range expandLanes {
		for _, v := range expandLanes {
			u := []float64{b, b, b, b, b}
			s := []float64{v, v, v, v, v}
			checkExpand(t, u, u, s)
			checkExpand(t, u[:3], u[:3], s[:3])
		}
	}
}

// TestExpandGuard requires every form to panic, rather than read or
// write out of bounds, on a bound shorter than s.
func TestExpandGuard(t *testing.T) {
	for name, expand := range expanders() {
		for _, tc := range []struct{ nu, nl int }{{4, 5}, {5, 4}, {0, 5}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: %d upper and %d lower lanes for 5 values: no panic", name, tc.nu, tc.nl)
					}
				}()
				expand(make([]float64, tc.nu), make([]float64, tc.nl), make([]float64, 5))
			}()
		}
	}
}

// FuzzExpand feeds raw bytes as (upper, lower, s) lanes — any bit
// pattern — and requires every implementation's Expand to equal the
// scalar loop bit for bit, lanes past n untouched.
func FuzzExpand(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	// Seeds, as (upper..., lower..., s...) with n lanes each.
	f.Add(mk(1, 2, 3, 0, 1, 2, 5, -1, 2), 3)
	f.Add(mk(nan, 1, 1, nan, 0, nan), 2)
	f.Add(mk(0, negZero, 0, negZero, negZero, 0, 0, negZero, negZero, 0, negZero, 0), 4)
	f.Add(mk(inf, -inf, -inf, inf, 1, -1), 2)
	f.Add(mk(1, -1, math.SmallestNonzeroFloat64), 1)
	long := make([]float64, 3*67)
	for i := range long {
		long[i] = float64(i%11) - 5
	}
	f.Add(mk(long...), 67)

	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n < 0 || n > 256 || len(raw) < 8*3*n {
			return
		}
		at := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		u, l, s := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			u[i], l[i], s[i] = at(i), at(n+i), at(2*n+i)
		}
		checkExpand(t, u, l, s)
	})
}
