package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// boundsTests is every implementation's row enclosure test plus the
// dispatched entry point, by name.
func boundsTests() map[string]func(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	fs := map[string]func(upper, lower, childUpper, childLower []float32, n, rows int) bool{"dispatched": BoundsInside32}
	for _, im := range Impls() {
		fs[im.Name] = im.BoundsInside32
	}
	return fs
}

// boundsDefinition is BoundsInside32's definition: no child upper lane
// above upper, no child lower lane below lower.
func boundsDefinition(upper, lower, childUpper, childLower []float32, n, rows int) bool {
	for j := 0; j < rows; j++ {
		for i := 0; i < n; i++ {
			if childUpper[j*n+i] > upper[i] || childLower[j*n+i] < lower[i] {
				return false
			}
		}
	}
	return true
}

// checkBounds32 holds every form of the row enclosure test to the
// definition and returns the definition's answer.
func checkBounds32(t *testing.T, upper, lower, childUpper, childLower []float32, n, rows int) bool {
	t.Helper()
	want := boundsDefinition(upper, lower, childUpper, childLower, n, rows)
	for name, inside := range boundsTests() {
		if got := inside(upper, lower, childUpper, childLower, n, rows); got != want {
			t.Fatalf("%s: %d rows of %d lanes inside = %v, definition %v (upper %v lower %v)",
				name, rows, n, got, want, upper[:n], lower[:n])
		}
	}
	return want
}

// enclosingRows returns the tightest band over the child rows: each
// lane's largest child upper and smallest child lower, NaN lanes
// skipped (a lane that is NaN in every row stays ±Inf).
func enclosingRows(childUpper, childLower []float32, n, rows int) (upper, lower []float32) {
	upper, lower = make([]float32, n), make([]float32, n)
	for i := range upper {
		upper[i], lower[i] = float32(math.Inf(-1)), float32(math.Inf(1))
	}
	for j := 0; j < rows; j++ {
		for i := 0; i < n; i++ {
			if v := childUpper[j*n+i]; v > upper[i] {
				upper[i] = v
			}
			if v := childLower[j*n+i]; v < lower[i] {
				lower[i] = v
			}
		}
	}
	return upper, lower
}

// hostileLanes32 overwrites a few lanes of each array with the values
// the NaN contract is about.
func hostileLanes32(rng *rand.Rand, arrays ...[]float32) {
	vals := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	for _, a := range arrays {
		for k := 0; k <= len(a)/16; k++ {
			a[rng.Intn(len(a))] = vals[rng.Intn(len(vals))]
		}
	}
}

// TestBoundsInside32Differential is the row enclosure test's grid: lane
// counts either side of the 8-lane step (every n mod 8 tail), child
// rows from a random walk and from raw float32 bits, the tightest band
// over them (inside), one child lane moved outward — and one band lane
// moved inward — by one float32 step at every lane of every row in turn
// (outside), the NaN contract's lanes on both sides, ±0 against ∓0,
// ±Inf, and inverted bands.
func TestBoundsInside32Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	down, up := float32(math.Inf(-1)), float32(math.Inf(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 50, 100, 131} {
		for trial := 0; trial < 8; trial++ {
			rows := 1 + rng.Intn(12)
			cu, cl := make([]float32, rows*n), make([]float32, rows*n)
			for j := 0; j < rows; j++ {
				v := rng.NormFloat64()
				for i := 0; i < n; i++ {
					v += rng.NormFloat64() / 4
					w := rng.Float64() / 2
					if trial%4 == 2 { // raw bits: any pattern, NaN payloads included
						cu[j*n+i] = math.Float32frombits(rng.Uint32())
						cl[j*n+i] = math.Float32frombits(rng.Uint32())
						continue
					}
					cu[j*n+i], cl[j*n+i] = NarrowUp(v+w), NarrowDown(v-w)
				}
			}
			if trial%4 == 3 {
				hostileLanes32(rng, cu, cl)
			}
			upper, lower := enclosingRows(cu, cl, n, rows)
			if !checkBounds32(t, upper, lower, cu, cl, n, rows) {
				t.Fatalf("n=%d rows=%d: the tightest band refused its rows", n, rows)
			}
			for j := 0; j < rows; j++ {
				for i := 0; i < n; i++ {
					for _, b := range []struct {
						lane []float32
						to   float32
					}{{cu[j*n:], up}, {cl[j*n:], down}} {
						keep := b.lane[i]
						b.lane[i] = math.Nextafter32(keep, b.to)
						checkBounds32(t, upper, lower, cu, cl, n, rows)
						b.lane[i] = keep
					}
				}
			}
			for i := 0; i < n; i++ {
				for _, b := range []struct {
					bound []float32
					to    float32
				}{{upper, down}, {lower, up}} {
					keep := b.bound[i]
					b.bound[i] = math.Nextafter32(keep, b.to)
					checkBounds32(t, upper, lower, cu, cl, n, rows)
					b.bound[i] = keep
				}
			}
			// Inverted band: ordered child lanes fall outside.
			checkBounds32(t, lower, upper, cu, cl, n, rows)
			// NaN band: every lane is inside.
			nan := make([]float32, n)
			for i := range nan {
				nan[i] = float32(math.NaN())
			}
			if !checkBounds32(t, nan, nan, cu, cl, n, rows) {
				t.Fatalf("n=%d: a NaN band refused a row", n)
			}
			// The widest band holds every ordered lane.
			inf, ninf := make([]float32, n), make([]float32, n)
			for i := range inf {
				inf[i], ninf[i] = up, down
			}
			if !checkBounds32(t, inf, ninf, cu, cl, n, rows) {
				t.Fatalf("n=%d: the ±Inf band refused a row", n)
			}
		}
	}
	// ±0: neither orders above or below the other, so both are inside.
	pz, nz := float32(0), float32(math.Copysign(0, -1))
	if !checkBounds32(t, []float32{nz, pz}, []float32{pz, nz}, []float32{pz, nz}, []float32{nz, pz}, 2, 1) {
		t.Fatal("±0 against ∓0 refused")
	}
	// No rows, and rows of no lanes.
	checkBounds32(t, []float32{0}, []float32{1}, nil, nil, 1, 0)
	checkBounds32(t, nil, nil, nil, nil, 0, 3)
}

// TestBoundsInside32Guard requires a bound shorter than n, a child
// array shorter than rows·n, or a negative n or rows to panic before
// any lane is read — in the assembly a wild read otherwise — on every
// implementation and on the dispatched entry point.
func TestBoundsInside32Guard(t *testing.T) {
	b, c := make([]float32, 20), make([]float32, 60)
	for name, inside := range boundsTests() {
		for _, tc := range []struct {
			upper, lower, cu, cl []float32
			n, rows              int
		}{
			{b[:19], b, c, c, 20, 3},
			{b, b[:19], c, c, 20, 3},
			{b, b, c[:59], c, 20, 3},
			{b, b, c, c[:59], 20, 3},
			{b, b, c, c, 20, 4},
			{b, b, c, c, -1, 3},
			{b, b, c, c, 20, -1},
			{b, b, c, c, 20, math.MaxInt},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: %d rows of %d lanes, bounds %d/%d, children %d/%d: no panic",
							name, tc.rows, tc.n, len(tc.upper), len(tc.lower), len(tc.cu), len(tc.cl))
					}
				}()
				inside(tc.upper, tc.lower, tc.cu, tc.cl, tc.n, tc.rows)
			}()
		}
	}
}

// FuzzBoundsInside32 feeds raw bytes as float32 lanes — any bit
// pattern: NaN payloads, ±Inf, ±0, subnormals, inverted bands — cut
// into a band of n lanes and rows child rows, and requires every
// implementation's row enclosure test to equal the definition. mode
// picks the band: 0 the raw lanes; 1 the tightest band over the child
// rows; 2 that band with one child lane moved outward by one float32
// step (lane and row chosen by pick; bit 2 of mode picks the lower
// bound); 3 that band inverted.
func FuzzBoundsInside32(f *testing.F) {
	mk := func(lanes ...float32) []byte {
		b := make([]byte, 0, 4*len(lanes))
		for _, x := range lanes {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	nan, inf, nz := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	// Seeds: every n from 1 to 17 and 100 in each mode with three rows,
	// then the NaN contract's lanes and an inverted band on raw lanes.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 100} {
		lanes := make([]float32, 2*n+2*3*n)
		for i := range lanes {
			lanes[i] = float32(i%7)/2 - 1.25
		}
		for mode := byte(0); mode < 8; mode++ {
			f.Add(mk(lanes...), n, 3, uint16(n+1), mode)
		}
	}
	f.Add(mk(1, 1, -1, -1, nan, 0, nan, 0.5), 2, 1, uint16(0), byte(0))
	f.Add(mk(nan, 1, nan, -1, 9, 0, -9, 0.5), 2, 1, uint16(0), byte(0))
	f.Add(mk(inf, 0, -inf, nz, inf, nz, -inf, 0), 2, 1, uint16(0), byte(0))
	f.Add(mk(nz, 0, 0, nz), 1, 1, uint16(0), byte(0))
	f.Add(mk(-1, 2, 0, 1, -2, 0, 0, 0, 0, 0, 0, 0), 3, 1, uint16(0), byte(0)) // inverted

	f.Fuzz(func(t *testing.T, raw []byte, n, rows int, pick uint16, mode byte) {
		if n <= 0 || n > 256 || rows < 0 || rows > 64 || len(raw) < 4*(2*n+2*rows*n) {
			return
		}
		lane := func(k int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(raw[4*k:])) }
		upper, lower := make([]float32, n), make([]float32, n)
		cu, cl := make([]float32, rows*n), make([]float32, rows*n)
		for i := 0; i < n; i++ {
			upper[i], lower[i] = lane(i), lane(n+i)
		}
		for k := range cu {
			cu[k], cl[k] = lane(2*n+k), lane(2*n+rows*n+k)
		}
		if mode%4 != 0 && rows > 0 {
			upper, lower = enclosingRows(cu, cl, n, rows)
			switch mode % 4 {
			case 2:
				k := int(pick) % (rows * n)
				if mode&4 == 0 {
					cu[k] = math.Nextafter32(cu[k], float32(math.Inf(1)))
				} else {
					cl[k] = math.Nextafter32(cl[k], float32(math.Inf(-1)))
				}
			case 3:
				upper, lower = lower, upper
			}
		}
		checkBounds32(t, upper, lower, cu, cl, n, rows)
	})
}

// BenchmarkBoundsInside32 is the heap open's internal-node containment
// test on one node's shape — 30 child rows (DefaultMaxCap) of 100
// lanes inside their tightest band — per form; ns/row is the column.
// The scalar form is the per-child loop the open ran before the kernel.
func BenchmarkBoundsInside32(b *testing.B) {
	const n, rows = 100, 30
	rng := rand.New(rand.NewSource(3))
	cu, cl := make([]float32, rows*n), make([]float32, rows*n)
	for j := 0; j < rows; j++ {
		v := 0.0
		for i := 0; i < n; i++ {
			v += rng.NormFloat64() / 4
			cu[j*n+i], cl[j*n+i] = NarrowUp(v+0.5), NarrowDown(v-0.5)
		}
	}
	upper, lower := enclosingRows(cu, cl, n, rows)
	for _, im := range Impls() {
		b.Run(im.Name, func(b *testing.B) {
			for b.Loop() {
				if !im.BoundsInside32(upper, lower, cu, cl, n, rows) {
					b.Fatal("the enclosing band refused its rows")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
