package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// trialData builds one adversarial input: mostly sane bounds around
// N(0,1) with occasional inverted bounds and NaN/±Inf lanes — every
// degenerate case the package NaN contract covers.
func trialData(rng *rand.Rand, n int) (u, l, s []float64) {
	u, l, s = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		if a < b {
			a, b = b, a
		}
		if rng.Intn(20) == 0 {
			a, b = b, a // inverted bounds
		}
		u[i], l[i] = a, b
		s[i] = rng.NormFloat64() * 1.5
		if rng.Intn(30) == 0 {
			switch rng.Intn(3) {
			case 0:
				s[i] = math.NaN()
			case 1:
				u[i] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				l[i] = math.NaN()
			}
		}
	}
	return
}

func trialLimit(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.NaN()
	case 2:
		return -rng.Float64() // negative limits act as zero
	default:
		return rng.Float64() * 4
	}
}

// narrowLanes converts bound lanes to float32 the plain way (round to
// nearest — the kernels take any float32, not only outward-rounded
// ones) and returns them with their exact float64 widening: the two
// sides of the contract X32(u, l, …) ≡ X(widen(u), widen(l), …).
func narrowLanes(a []float64) (narrow []float32, wide []float64) {
	narrow, wide = make([]float32, len(a)), make([]float64, len(a))
	for i, v := range a {
		narrow[i] = float32(v)
		wide[i] = float64(narrow[i])
	}
	return
}

// bitsEq is bit-pattern equality — stricter than ==, it distinguishes
// +0 from −0 and treats equal NaN patterns as equal.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestKernelDifferential bit-compares every registered implementation
// against the scalar oracle on the single-row entry points, over
// thousands of adversarial inputs (NaN/Inf lanes, inverted bounds,
// degenerate limits, lengths spanning the unrolled body and its tail),
// each abandoning form at the drawn limit and at +Inf, which is
// DistFlat. The dispatched DistFlat and DistFlat32, and
// WidthIncreaseSequence, one function for every implementation, are
// checked against their definitions.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	impls := Impls()
	if impls[0].Name != "scalar" {
		t.Fatalf("Impls()[0] = %q, want the scalar oracle first", impls[0].Name)
	}
	inf := math.Inf(1)
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(200)
		u, l, s := trialData(rng, n)
		limit := trialLimit(rng)

		wantFlat, _ := distAbandonFlatScalar(u, l, s, inf)
		wantAb, wantOK := distAbandonFlatScalar(u, l, s, limit)

		u32, wu := narrowLanes(u)
		l32, wl := narrowLanes(l)
		wantFlat32, _ := distAbandonFlatScalar(wu, wl, s, inf)
		wantAb32, wantOK32 := distAbandonFlatScalar(wu, wl, s, limit)

		for _, im := range impls {
			if got, ok := im.DistAbandonFlat32(u32, l32, s, inf); !bitsEq(got, wantFlat32) || !ok {
				t.Fatalf("trial %d: %s DistAbandonFlat32 at +Inf = (%v (%x), %v), scalar on widened bounds %v (%x)",
					trial, im.Name, got, math.Float64bits(got), ok, wantFlat32, math.Float64bits(wantFlat32))
			}
			if got, ok := im.DistAbandonFlat32(u32, l32, s, limit); !bitsEq(got, wantAb32) || ok != wantOK32 {
				t.Fatalf("trial %d: %s DistAbandonFlat32 = (%v, %v), scalar on widened bounds (%v, %v), limit %v",
					trial, im.Name, got, ok, wantAb32, wantOK32, limit)
			}
			if got, ok := im.DistAbandonFlat(u, l, s, inf); !bitsEq(got, wantFlat) || !ok {
				t.Fatalf("trial %d: %s DistAbandonFlat at +Inf = (%v (%x), %v), scalar %v (%x)",
					trial, im.Name, got, math.Float64bits(got), ok, wantFlat, math.Float64bits(wantFlat))
			}
			if got, ok := im.DistAbandonFlat(u, l, s, limit); !bitsEq(got, wantAb) || ok != wantOK {
				t.Fatalf("trial %d: %s DistAbandonFlat = (%v, %v), scalar (%v, %v), limit %v",
					trial, im.Name, got, ok, wantAb, wantOK, limit)
			}
		}
		if got := DistFlat(u, l, s); !bitsEq(got, wantFlat) {
			t.Fatalf("trial %d: DistFlat = %v, scalar %v", trial, got, wantFlat)
		}
		if got := DistFlat32(u32, l32, s); !bitsEq(got, wantFlat32) {
			t.Fatalf("trial %d: DistFlat32 = %v, scalar on widened bounds %v", trial, got, wantFlat32)
		}
		if got, want := WidthIncreaseSequence(u, l, s), laneOrderIncrease(u, l, s); !bitsEq(got, want) {
			t.Fatalf("trial %d: WidthIncreaseSequence = %v, lane-order sum %v", trial, got, want)
		}
	}
	sweepDifferential(t, rng)
}

// hostileLanes overwrites a few lanes of each array with the values the
// NaN contract singles out: NaN, ±Inf, −0 and subnormals.
func hostileLanes(rng *rand.Rand, arrays ...[]float64) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32} // the last two survive narrowing
	for _, a := range arrays {
		for k := 0; k <= len(a)/16; k++ { // arrays are never empty here
			a[rng.Intn(len(a))] = vals[rng.Intn(len(vals))]
		}
	}
}

// checkSweep bit-compares every implementation's sweep, row by row,
// against the scalar single-row oracle on the same rows — and its
// float32-bound sweep over the narrowed rows against the same oracle on
// their widening.
func checkSweep(t *testing.T, upper, lower []float64, stride int, s []float64, limit float64, rows int) {
	t.Helper()
	n := len(s)
	u32, wu := narrowLanes(upper)
	l32, wl := narrowLanes(lower)
	check := func(form string, u, l []float64, sweep func(dists []float64)) {
		t.Helper()
		dists := make([]float64, rows)
		for j := range dists {
			dists[j] = 12345 // a row the sweep skips must not pass for a result
		}
		sweep(dists)
		for j, got := range dists {
			want, ok := distAbandonFlatScalar(u[j*stride:j*stride+n], l[j*stride:j*stride+n], s, limit)
			if !ok {
				want = Abandoned
			}
			if !bitsEq(got, want) {
				t.Fatalf("%s row %d/%d (n=%d stride=%d limit=%v) = %v (%x), scalar row form %v (%x)",
					form, j, rows, n, stride, limit, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, im := range Impls() {
		check(im.Name+" sweep", upper, lower, func(dists []float64) {
			im.SweepAbandonFlat(upper, lower, stride, s, limit, dists)
		})
		check(im.Name+" sweep32", wu, wl, func(dists []float64) {
			im.SweepAbandonFlat32(u32, l32, stride, s, limit, dists)
		})
	}
}

// sweepDifferential is TestKernelDifferential's grid for the sibling
// sweep: row counts either side of core's scratch capacity, lane counts
// on both sides of every schedule boundary and of the 4-lane step,
// strides wider than the query (the prefix case), and every degenerate
// lane and limit of the NaN contract.
func sweepDifferential(t *testing.T, rng *rand.Rand) {
	limits := []float64{0.2, 1, 0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, rows := range []int{1, 2, 30, 65} {
		for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 101, 127, 128, 129, 130, 193} {
			for _, pad := range []int{0, 1, 29} {
				stride := n + pad
				for trial := 0; trial < 4; trial++ {
					u, l, _ := trialData(rng, rows*stride)
					_, _, s := trialData(rng, n)
					if trial%2 == 1 {
						hostileLanes(rng, u, l, s)
					}
					// The last row may stop at its n-th lane.
					u, l = u[:(rows-1)*stride+n], l[:(rows-1)*stride+n]
					limit := limits[rng.Intn(len(limits))]
					if trial == 0 {
						limit = trialLimit(rng)
					}
					checkSweep(t, u, l, stride, s, limit, rows)
				}
			}
		}
	}
	// No rows, and rows of no lanes.
	for _, im := range Impls() {
		im.SweepAbandonFlat(nil, nil, 7, []float64{1, 2}, 1, nil)
		im.SweepAbandonFlat32(nil, nil, 7, []float64{1, 2}, 1, nil)
		dists := []float64{5, 5, 5, 5, 5, 5}
		im.SweepAbandonFlat(nil, nil, 0, nil, -1, dists[:3])
		im.SweepAbandonFlat32(nil, nil, 0, nil, -1, dists[3:])
		for j, d := range dists {
			if !bitsEq(d, 0) {
				t.Fatalf("%s: empty row %d scored %v, want +0", im.Name, j, d)
			}
		}
	}
}

// TestSweepSchedule moves the lane at which a row first exceeds the
// limit across every check point of the graduated schedule, in a
// middle row, and requires its neighbours to be scored regardless.
func TestSweepSchedule(t *testing.T) {
	const rows, n = 3, 2*laneBlock + 7
	for cross := 0; cross < n; cross++ {
		u, l := make([]float64, rows*n), make([]float64, rows*n)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.5
		}
		u[n+cross], l[n+cross] = -10, -10 // row 1 crosses limit=1 at lane `cross`
		checkSweep(t, u, l, n, s, 1, rows)
	}
}

// TestSweepShapeGuard requires a mis-shaped sweep to panic before any
// lane is read, on every implementation and on the dispatched entry
// point — a silent prefix match or an out-of-bounds read otherwise.
func TestSweepShapeGuard(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	b, b32 := make([]float64, 100), make([]float32, 100)
	sweeps := map[string]func(hiU, hiL, stride int, s []float64, limit float64, dists []float64){
		"dispatched": func(hiU, hiL, stride int, s []float64, limit float64, dists []float64) {
			SweepAbandonFlat(b[:hiU], b[:hiL], stride, s, limit, dists)
		},
		"dispatched32": func(hiU, hiL, stride int, s []float64, limit float64, dists []float64) {
			SweepAbandonFlat32(b32[:hiU], b32[:hiL], stride, s, limit, dists)
		},
	}
	for _, im := range Impls() {
		sweeps[im.Name] = func(hiU, hiL, stride int, s []float64, limit float64, dists []float64) {
			im.SweepAbandonFlat(b[:hiU], b[:hiL], stride, s, limit, dists)
		}
		sweeps[im.Name+"32"] = func(hiU, hiL, stride int, s []float64, limit float64, dists []float64) {
			im.SweepAbandonFlat32(b32[:hiU], b32[:hiL], stride, s, limit, dists)
		}
	}
	for name, sweep := range sweeps {
		mustPanic(name+": query longer than stride", func() {
			sweep(100, 100, 10, make([]float64, 11), 1, make([]float64, 2))
		})
		mustPanic(name+": short upper", func() {
			sweep(94, 100, 10, make([]float64, 5), 1, make([]float64, 10))
		})
		mustPanic(name+": short lower", func() {
			sweep(100, 94, 10, make([]float64, 5), 1, make([]float64, 10))
		})
		mustPanic(name+": too many rows", func() {
			sweep(100, 100, 10, make([]float64, 10), 1, make([]float64, 11))
		})
		sweep(100, 95, 10, make([]float64, 5), 1, make([]float64, 10)) // exactly enough
	}
}

// TestKernelNaNContract pins the documented degenerate-lane semantics
// with hand-built cases (not just differentially): NaN lanes contribute
// +0, inverted bounds let "above" win, NaN/+Inf limits never abandon.
func TestKernelNaNContract(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	for _, im := range Impls() {
		// DistFlat and DistFlat32 are the abandoning forms at +Inf.
		flat := func(u, l, s []float64) float64 {
			d, _ := im.DistAbandonFlat(u, l, s, inf)
			return d
		}
		flat32 := func(u, l []float32, s []float64) float64 {
			d, _ := im.DistAbandonFlat32(u, l, s, inf)
			return d
		}
		// A NaN anywhere in a lane contributes nothing.
		if d := flat([]float64{nan}, []float64{-1}, []float64{5}); d != 0 {
			t.Fatalf("%s: NaN upper lane contributed %v", im.Name, d)
		}
		if d := flat([]float64{1}, []float64{nan}, []float64{-5}); d != 0 {
			t.Fatalf("%s: NaN lower lane contributed %v", im.Name, d)
		}
		if d := flat([]float64{1}, []float64{-1}, []float64{nan}); d != 0 {
			t.Fatalf("%s: NaN value lane contributed %v", im.Name, d)
		}
		// Inverted bounds: v inside (l, u) reversed satisfies both
		// comparisons; the "above" branch must win, as in the scalar
		// else-if chain. u=-1, l=1, v=0: above excursion v-u = 1,
		// below would be l-v = 1 too — make them distinct.
		if d := flat([]float64{-1}, []float64{2}, []float64{0}); d != 1 {
			t.Fatalf("%s: inverted bounds gave %v, want the above excursion 1", im.Name, d)
		}
		// NaN and +Inf limits never abandon.
		u, l, s := []float64{0}, []float64{0}, []float64{100}
		if d, ok := im.DistAbandonFlat(u, l, s, nan); !ok || d != 100 {
			t.Fatalf("%s: NaN limit abandoned (%v, %v)", im.Name, d, ok)
		}
		if d, ok := im.DistAbandonFlat(u, l, s, inf); !ok || d != 100 {
			t.Fatalf("%s: +Inf limit abandoned (%v, %v)", im.Name, d, ok)
		}
		// The result is never −0.
		if d := flat([]float64{1}, []float64{-1}, []float64{0}); math.Signbit(d) {
			t.Fatalf("%s: produced -0", im.Name)
		}
		// The float32-bound forms inherit every clause: a NaN bound
		// lane contributes nothing, "above" wins, NaN limits never
		// abandon.
		nan32 := float32(nan)
		if d := flat32([]float32{nan32, 1}, []float32{-1, nan32}, []float64{5, -5}); d != 0 {
			t.Fatalf("%s: NaN float32 bound lanes contributed %v", im.Name, d)
		}
		if d := flat32([]float32{-1}, []float32{2}, []float64{0}); d != 1 {
			t.Fatalf("%s: inverted float32 bounds gave %v, want the above excursion 1", im.Name, d)
		}
		if d, ok := im.DistAbandonFlat32([]float32{0}, []float32{0}, s, nan); !ok || d != 100 {
			t.Fatalf("%s: NaN limit abandoned the float32 form (%v, %v)", im.Name, d, ok)
		}
		if d, ok := im.DistAbandonFlat32(nil, nil, nil, 0); !ok || d != 0 {
			t.Fatalf("%s: empty float32 abandoning input gave (%v, %v)", im.Name, d, ok)
		}
		// Empty input.
		if d := flat(nil, nil, nil); d != 0 {
			t.Fatalf("%s: empty input gave %v", im.Name, d)
		}
		if d, ok := im.DistAbandonFlat(nil, nil, nil, 0); !ok || d != 0 {
			t.Fatalf("%s: empty abandoning input gave (%v, %v)", im.Name, d, ok)
		}
	}
}

// TestKernelAbandonSchedule checks the blocked/late abandoning forms
// agree with the per-lane scalar form on inputs engineered so the
// running maximum crosses the limit at every possible block offset.
func TestKernelAbandonSchedule(t *testing.T) {
	n := 3*laneBlock + 7
	for cross := 0; cross < n; cross += 13 {
		u, l, s := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range s {
			s[i] = 0.5 // small excursion everywhere (u=l=0)
		}
		s[cross] = 10 // crosses limit=1 at lane `cross`
		want, wantOK := distAbandonFlatScalar(u, l, s, 1)
		for _, im := range Impls() {
			if got, ok := im.DistAbandonFlat(u, l, s, 1); !bitsEq(got, want) || ok != wantOK {
				t.Fatalf("%s: crossing at %d gave (%v, %v), scalar (%v, %v)",
					im.Name, cross, got, ok, want, wantOK)
			}
		}
	}
}

// TestKernelSelection pins the dispatch rules: explicit forcing wins,
// unknown values fall back to the fastest supported form, and the
// selected name is always a registered implementation.
func TestKernelSelection(t *testing.T) {
	if got := selectImpl("scalar").Name; got != "scalar" {
		t.Fatalf("force scalar selected %q", got)
	}
	if got := selectImpl("portable").Name; got != "portable" {
		t.Fatalf("force portable selected %q", got)
	}
	fastest := "portable"
	if hasAVX2 {
		fastest = "avx2"
	}
	for _, force := range []string{"", "bogus", "avx2"} {
		want := fastest
		if force == "avx2" && !hasAVX2 {
			want = "portable" // forcing an unsupported form falls back
		}
		if got := selectImpl(force).Name; got != want {
			t.Fatalf("force %q selected %q, want %q", force, got, want)
		}
	}
	names := map[string]bool{}
	for _, im := range Impls() {
		names[im.Name] = true
	}
	if !names[Active()] {
		t.Fatalf("Active() = %q, not a registered implementation", Active())
	}
}

var sinkF float64

// benchDist runs f over 64 distinct node-bound pairs round-robin — a
// search descent evaluates the same query against a DIFFERENT node's
// bounds on every call, so the benchmark must not let the branch
// predictor memorize one fixed lane sequence (replaying a single input
// flatters the branchy scalar by ~4x; rotating inputs is the honest
// workload for pruning kernels).
func benchDist(b *testing.B, f func(u, l, s []float64) float64) {
	const nodes, n = 64, 1024
	rng := rand.New(rand.NewSource(7))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 1.5
	}
	us, ls := make([][]float64, nodes), make([][]float64, nodes)
	for k := range us {
		u, l := make([]float64, n), make([]float64, n)
		for i := range u {
			a, c := rng.NormFloat64(), rng.NormFloat64()
			if a < c {
				a, c = c, a
			}
			u[i], l[i] = a, c
		}
		us[k], ls[k] = u, l
	}
	b.SetBytes(3 * 8 * n)
	k := 0
	for b.Loop() {
		sinkF = f(us[k], ls[k], s)
		k = (k + 1) & (nodes - 1)
	}
}

// BenchmarkDistKernel compares the Eq. 2 forms per lane: each
// implementation's DistAbandonFlat at a +Inf limit, which is DistFlat
// (and the descent's common case: most nodes survive). The scalar
// sub-benchmark is the pre-kernel baseline (the branchy loop shipped in
// internal/mbts); portable and avx2 are the dispatchable forms.
func BenchmarkDistKernel(b *testing.B) {
	flat := func(f func(u, l, s []float64, limit float64) (float64, bool)) func(u, l, s []float64) float64 {
		return func(u, l, s []float64) float64 {
			m, _ := f(u, l, s, math.Inf(1))
			return m
		}
	}
	b.Run("scalar", func(b *testing.B) { benchDist(b, flat(distAbandonFlatScalar)) })
	b.Run("portable", func(b *testing.B) { benchDist(b, flat(distAbandonFlatPortable)) })
	b.Run("avx2", func(b *testing.B) {
		if !hasAVX2 {
			b.Skip("avx2 not supported on this host")
		}
		benchDist(b, flat(avx2Impl().DistAbandonFlat))
	})
	b.Run("active", func(b *testing.B) { benchDist(b, DistFlat) })
}
