package kernel_test

import (
	"encoding/binary"
	"math"
	"testing"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// An external test package: series verifies through this package, so
// holding the kernel to series.Chebyshev from inside it would be an
// import cycle.

// FuzzCandidateDist pins the equivalence top-k's candidate verification
// rests on: with both bounds set to a window w, the Eq. 2 kernel's
// excursions are q−w above and w−q below, so it computes max|q−w| —
// series.Chebyshev(q, w), bit for bit, NaN and Inf−Inf lanes
// contributing 0 in both forms. Every implementation must return that
// exact distance with ok when it does not strictly exceed the limit
// (a NaN limit exceeds nothing), and (0, false) when it does. A zero
// distance is never abandoned, even against a negative limit (the
// scalar's d > max gate); top-k limits are distances, never negative.
func FuzzCandidateDist(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	// Seeds, as (w..., q..., limit): plain lanes either side of the
	// limit, a limit equal to the distance, NaN/±Inf/−0/denormal lanes,
	// negative, NaN and +Inf limits, and lengths that are not a
	// multiple of 4 — including one past the 64-lane abandon block.
	f.Add(mk(1, 2, 3, 1.5, 2, 2, 0.75), 3)
	f.Add(mk(1, 2, 3, 1.5, 2, 2, 1), 3)
	f.Add(mk(1, 2, 3, 1.5, 2, 2, 0.5), 3)
	f.Add(mk(nan, 1, 0, nan, 0.5), 2)
	f.Add(mk(inf, -inf, inf, inf, 1), 2)
	f.Add(mk(inf, 0, 0, -inf, inf), 2)
	f.Add(mk(0, negZero, negZero, 0, 0), 2)
	f.Add(mk(denorm, 0, 0, denorm, 0), 2)
	f.Add(mk(denorm, 0, -denorm, 0, denorm), 2)
	f.Add(mk(5, 5, -1), 1)
	f.Add(mk(5, 6, -1), 1)
	f.Add(mk(5, 6, nan), 1)
	f.Add(mk(5, 6, 1, 2, 3, 4, 5, 9, 1, 2, 2.5), 5)
	long := make([]float64, 2*67+1)
	for i := range long {
		long[i] = float64(i%11) - 5
	}
	long[2*67] = 3
	f.Add(mk(long...), 67)

	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n < 0 || n > 256 || len(raw) < 8*(2*n+1) {
			return
		}
		at := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		w := make([]float64, n)
		q := make([]float64, n)
		for i := 0; i < n; i++ {
			w[i], q[i] = at(i), at(n+i)
		}
		limit := at(2 * n)

		dist := series.Chebyshev(q, w)
		wantOK := dist == 0 || !(dist > limit)
		want := dist
		if !wantOK {
			want = 0
		}
		for _, im := range kernel.Impls() {
			got, ok := im.DistAbandonFlat(w, w, q, limit)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s DistAbandonFlat(w, w, q, %v) = (%x, %v), Chebyshev gives (%x, %v) (w=%v q=%v)",
					im.Name, limit, math.Float64bits(got), ok, math.Float64bits(want), wantOK, w, q)
			}
		}
	})
}
