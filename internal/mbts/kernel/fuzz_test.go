package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDistKernels feeds raw bytes as (upper, lower, s, limit) lanes —
// any bit pattern, including NaN payloads, ±Inf, subnormals, and −0 —
// and requires every registered implementation to agree bit-for-bit
// with the scalar oracle on the abandoning form, at the limit and at
// +Inf (which is DistFlat); WidthIncreaseSequence to equal the
// lane-order sum of the oracle's one-lane distances; and the sweeps to
// agree row by row with the scalar single-row form when the same lanes
// are cut into 1, 2 and 3 rows (whole rows and prefixes).
// This is the executable form of the package NaN contract: no input,
// however degenerate, may make the dispatchable forms diverge.
//
// The float32-bound entry points ride the same inputs twice — bounds
// converted to float32 (keeps ±Inf, NaN, −0; overflows to ±Inf), and
// bounds whose float32 bits are the high word of the float64 lane (any
// pattern: signalling NaNs, float32 subnormals) — and must equal the
// scalar float64 oracle on the widened bounds, bit for bit.
func FuzzDistKernels(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	nan := math.NaN()
	inf := math.Inf(1)
	// Seeds: plain lanes, NaN in each operand, ±Inf bounds, inverted
	// bounds, −0 crossings, degenerate limits, a >64-lane input so the
	// abandoning path runs past its graduated checks, and one wide
	// enough that a third of it still does.
	f.Add(mk(1, -1, 0, 0.5), 1)
	f.Add(mk(1, 2, -1, 0, 5, -5, 0.25), 2)
	f.Add(mk(nan, -1, 5, 0.1), 1)
	f.Add(mk(1, nan, -5, 0.1), 1)
	f.Add(mk(1, -1, nan, 0.1), 1)
	f.Add(mk(inf, -inf, 3, 0.1), 1)
	f.Add(mk(-1, 2, 0, 0.5), 1) // inverted bounds
	f.Add(mk(0, math.Copysign(0, -1), math.Copysign(0, -1), 0.5), 1)
	f.Add(mk(1, -1, 100, nan), 1) // NaN limit
	f.Add(mk(1, -1, 100, inf), 1) // +Inf limit
	long := make([]float64, 3*70+1)
	for i := range long {
		long[i] = float64(i%7) - 3
	}
	f.Add(mk(long...), 70)
	wide := make([]float64, 3*201+1)
	for i := range wide {
		wide[i] = float64(i%13)/4 - 1.5
	}
	wide[3*201] = 1.25
	f.Add(mk(wide...), 201)

	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n < 0 || n > 256 {
			return
		}
		need := 8 * (3*n + 1)
		if len(raw) < need {
			return
		}
		at := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		u := make([]float64, n)
		l := make([]float64, n)
		s := make([]float64, n)
		for i := 0; i < n; i++ {
			u[i], l[i], s[i] = at(i), at(n+i), at(2*n+i)
		}
		limit := at(3 * n)

		inf := math.Inf(1)
		wantFlat, _ := distAbandonFlatScalar(u, l, s, inf)
		wantAb, wantOK := distAbandonFlatScalar(u, l, s, limit)
		for _, im := range Impls() {
			if got, ok := im.DistAbandonFlat(u, l, s, inf); math.Float64bits(got) != math.Float64bits(wantFlat) || !ok {
				t.Fatalf("%s DistAbandonFlat at +Inf = (%x, %v), scalar %x (u=%v l=%v s=%v)",
					im.Name, math.Float64bits(got), ok, math.Float64bits(wantFlat), u, l, s)
			}
			got, ok := im.DistAbandonFlat(u, l, s, limit)
			if math.Float64bits(got) != math.Float64bits(wantAb) || ok != wantOK {
				t.Fatalf("%s DistAbandonFlat = (%x, %v), scalar (%x, %v) limit=%v (u=%v l=%v s=%v)",
					im.Name, math.Float64bits(got), ok, math.Float64bits(wantAb), wantOK, limit, u, l, s)
			}
		}
		if got, want := WidthIncreaseSequence(u, l, s), laneOrderIncrease(u, l, s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WidthIncreaseSequence = %x, lane-order sum %x (u=%v l=%v s=%v)",
				math.Float64bits(got), math.Float64bits(want), u, l, s)
		}

		// The float32 bound arrays and their widenings, both derivations.
		type narrowed struct {
			form     string
			u32, l32 []float32
			wu, wl   []float64
		}
		forms := []narrowed{{form: "converted"}, {form: "high-word"}}
		for k := range forms {
			nf := &forms[k]
			nf.u32, nf.l32 = make([]float32, n), make([]float32, n)
			nf.wu, nf.wl = make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				if k == 0 {
					nf.u32[i], nf.l32[i] = float32(u[i]), float32(l[i])
				} else {
					nf.u32[i] = math.Float32frombits(uint32(math.Float64bits(u[i]) >> 32))
					nf.l32[i] = math.Float32frombits(uint32(math.Float64bits(l[i]) >> 32))
				}
				nf.wu[i], nf.wl[i] = float64(nf.u32[i]), float64(nf.l32[i])
			}
			wantFlat, _ := distAbandonFlatScalar(nf.wu, nf.wl, s, inf)
			wantAb, wantOK := distAbandonFlatScalar(nf.wu, nf.wl, s, limit)
			for _, im := range Impls() {
				if got, ok := im.DistAbandonFlat32(nf.u32, nf.l32, s, inf); math.Float64bits(got) != math.Float64bits(wantFlat) || !ok {
					t.Fatalf("%s DistAbandonFlat32 at +Inf (%s) = (%x, %v), scalar on widened bounds %x (u=%v l=%v s=%v)",
						im.Name, nf.form, math.Float64bits(got), ok, math.Float64bits(wantFlat), nf.u32, nf.l32, s)
				}
				got, ok := im.DistAbandonFlat32(nf.u32, nf.l32, s, limit)
				if math.Float64bits(got) != math.Float64bits(wantAb) || ok != wantOK {
					t.Fatalf("%s DistAbandonFlat32 (%s) = (%x, %v), scalar on widened bounds (%x, %v) limit=%v (u=%v l=%v s=%v)",
						im.Name, nf.form, math.Float64bits(got), ok, math.Float64bits(wantAb), wantOK, limit, nf.u32, nf.l32, s)
				}
			}
		}

		for rows := 1; rows <= 3; rows++ {
			stride := n / rows
			for _, lanes := range []int{stride, stride - stride/3} {
				q := s[:lanes]
				checkRows := func(form string, ru, rl, dists []float64) {
					for j, got := range dists {
						want, ok := distAbandonFlatScalar(ru[j*stride:j*stride+lanes], rl[j*stride:j*stride+lanes], q, limit)
						if !ok {
							want = Abandoned
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s row %d of %d (stride %d, %d lanes) = %x, scalar row form %x limit=%v (u=%v l=%v s=%v)",
								form, j, rows, stride, lanes, math.Float64bits(got), math.Float64bits(want), limit, ru, rl, s)
						}
					}
				}
				for _, im := range Impls() {
					dists := make([]float64, rows)
					im.SweepAbandonFlat(u, l, stride, q, limit, dists)
					checkRows(im.Name+" sweep", u, l, dists)
					for _, nf := range forms {
						im.SweepAbandonFlat32(nf.u32, nf.l32, stride, q, limit, dists)
						checkRows(im.Name+" sweep32 ("+nf.form+")", nf.wu, nf.wl, dists)
					}
				}
			}
		}
	})
}

// FuzzNarrowOutward pins the storage half of the half-width contract on
// every float64 bit pattern: a finite x lies between its two narrowings,
// each is float32(x) or that value's neighbour on the outer side — the
// tightest float32 there is — and narrowing what is already a float32
// changes nothing, so a bound survives any number of freeze cycles
// unmoved. NaN and ±Inf narrow to themselves.
func FuzzNarrowOutward(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 1e7 + 0.3, -(1e7 + 0.3),
		math.MaxFloat32, -math.MaxFloat32, math.MaxFloat32 * (1 + 1e-9), -math.MaxFloat32 * (1 + 1e-9),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		up, down := NarrowUp(x), NarrowDown(x)
		if math.IsNaN(x) {
			if up == up || down == down {
				t.Fatalf("NaN narrowed to (%v, %v)", up, down)
			}
			return
		}
		if !(float64(up) >= x && x >= float64(down)) {
			t.Fatalf("%v (%x) not within [down %v, up %v]", x, bits, down, up)
		}
		inf, near := float32(math.Inf(1)), float32(x)
		if up != near && up != math.Nextafter32(near, inf) {
			t.Fatalf("NarrowUp(%v) = %v, neither float32(x) = %v nor its upward neighbour", x, up, near)
		}
		if down != near && down != math.Nextafter32(near, -inf) {
			t.Fatalf("NarrowDown(%v) = %v, neither float32(x) = %v nor its downward neighbour", x, down, near)
		}
		// Tightest: the next float32 inward is already on the wrong side.
		if up != -inf && !(float64(math.Nextafter32(up, -inf)) < x) {
			t.Fatalf("NarrowUp(%v) = %v is not the smallest float32 above it", x, up)
		}
		if down != inf && !(float64(math.Nextafter32(down, inf)) > x) {
			t.Fatalf("NarrowDown(%v) = %v is not the largest float32 below it", x, down)
		}
		// Idempotent, to the bit (−0 stays −0).
		if again := NarrowUp(float64(up)); math.Float32bits(again) != math.Float32bits(up) {
			t.Fatalf("NarrowUp moved %v to %v on a second pass", up, again)
		}
		if again := NarrowDown(float64(down)); math.Float32bits(again) != math.Float32bits(down) {
			t.Fatalf("NarrowDown moved %v to %v on a second pass", down, again)
		}
	})
}
