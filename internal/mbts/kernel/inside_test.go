package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// insideFunc is the enclosure test's signature.
type insideFunc = func(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool

// insideTests is every implementation's enclosure test plus the
// dispatched entry point, by name.
func insideTests() map[string]insideFunc {
	fs := map[string]insideFunc{"dispatched": WindowsInside32}
	for _, im := range Impls() {
		fs[im.Name] = im.WindowsInside32
	}
	return fs
}

// insideDefinition is WindowsInside32's definition: the scalar
// DistFlat32 of every window against the band read in order is 0.
func insideDefinition(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	n := order.Len()
	u, l := make([]float32, n), make([]float32, n)
	for i := range u {
		u[i], l[i] = upper[order.at[i]], lower[order.at[i]]
	}
	for _, p := range starts {
		if d, _ := distAbandonFlat32Scalar(u, l, data[p:int(p)+n], math.Inf(1)); d != 0 {
			return false
		}
	}
	return true
}

// checkInside32 holds every form of the enclosure test to the
// definition and returns the definition's answer.
func checkInside32(t *testing.T, upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
	t.Helper()
	want := insideDefinition(upper, lower, data, starts, order)
	n := order.Len()
	for name, inside := range insideTests() {
		if got := inside(upper, lower, data, starts, order); got != want {
			t.Fatalf("%s: %d windows of %d lanes at %v inside = %v, definition %v (upper %v lower %v order %v)",
				name, len(starts), n, starts, got, want, upper[:n], lower[:n], order.at)
		}
	}
	return want
}

// identityOrder is the lane order of a band stored as its windows are.
func identityOrder(n int) LaneOrder {
	at := make([]int32, n)
	for i := range at {
		at[i] = int32(i)
	}
	return NewLaneOrder(at)
}

// testOrder is the lane order the grids pick by kind: 0 identity, 1 the
// windows' lane i stored at i·s mod n for the smallest s ≥ ⌈n/8⌉
// coprime to n (the inverse of a frozen arena's spread order has the
// same shape), 2 a random permutation drawn from rng.
func testOrder(rng *rand.Rand, n, kind int) LaneOrder {
	at := make([]int32, n)
	switch kind % 3 {
	case 0:
		return identityOrder(n)
	case 1:
		s := max((n+7)/8, 1)
		for gcd(s, n) != 1 {
			s++
		}
		for i := range at {
			at[i] = int32(i * s % n)
		}
	default:
		for i, k := range rng.Perm(n) {
			at[i] = int32(k)
		}
	}
	return NewLaneOrder(at)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// stored lays a band given in window order out in order: lane i of
// upper and lower moves to lane order.at[i].
func stored(upper, lower []float32, order LaneOrder) (su, sl []float32) {
	su, sl = make([]float32, len(upper)), make([]float32, len(lower))
	for i := range order.Len() {
		su[order.at[i]], sl[order.at[i]] = upper[i], lower[i]
	}
	return su, sl
}

// enclosingBounds returns the tightest float32 band that encloses the
// windows at starts: each lane's extremes over the windows, NaN lanes
// skipped, narrowed outward as freeze narrows a leaf's bounds.
func enclosingBounds(data []float64, starts []int32, n int) (upper, lower []float32) {
	u, l := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i], l[i] = math.Inf(-1), math.Inf(1)
	}
	for _, p := range starts {
		expandScalar(u, l, data[p:int(p)+n])
	}
	upper, lower = make([]float32, n), make([]float32, n)
	for i := range upper {
		upper[i], lower[i] = NarrowUp(u[i]), NarrowDown(l[i])
	}
	return upper, lower
}

// TestWindowsInside32Differential is the enclosure test's grid: lane
// counts either side of the 4-lane step and of the 16-lane block, bands
// stored in window order, in a spread order and in a random one, the
// tightest band over a random walk's windows (inside), the same band
// with one bound lane moved inward by one float32 step at every lane in
// turn — the tail's lanes included — (outside), the NaN contract's
// lanes in the series and in the bounds, and inverted bounds.
func TestWindowsInside32Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	down, up := float32(math.Inf(-1)), float32(math.Inf(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 20, 37, 100, 131} {
		for trial := 0; trial < 12; trial++ {
			data := make([]float64, n+rng.Intn(200))
			v := 0.0
			for i := range data {
				v += rng.NormFloat64() / 4
				data[i] = v
			}
			if trial%4 == 3 {
				hostileLanes(rng, data)
			}
			last := int32(len(data) - n)
			starts := []int32{last}
			for k := rng.Intn(40); k > 0; k-- {
				starts = append(starts, rng.Int31n(last+1))
			}
			order := testOrder(rng, n, trial)
			upper, lower := enclosingBounds(data, starts, n)
			upper, lower = stored(upper, lower, order)
			if !checkInside32(t, upper, lower, data, starts, order) {
				t.Fatalf("n=%d: the tightest enclosing band does not enclose its windows", n)
			}
			for i := 0; i < n; i++ {
				for _, b := range []struct {
					bound []float32
					to    float32
				}{{upper, down}, {lower, up}} {
					keep := b.bound[i]
					b.bound[i] = math.Nextafter32(keep, b.to)
					checkInside32(t, upper, lower, data, starts, order)
					b.bound[i] = keep
				}
			}
			// Inverted: every ordered lane is outside.
			checkInside32(t, lower, upper, data, starts, order)
			// NaN bounds: every lane is inside.
			nanU, nanL := append([]float32(nil), upper...), append([]float32(nil), lower...)
			for i := range nanU {
				nanU[i], nanL[i] = float32(math.NaN()), float32(math.NaN())
			}
			if !checkInside32(t, nanU, nanL, data, starts, order) {
				t.Fatalf("n=%d: NaN bounds refused a window", n)
			}
		}
	}
	// No starts, and windows of no lanes.
	checkInside32(t, []float32{0}, []float32{1}, []float64{5}, nil, identityOrder(1))
	checkInside32(t, nil, nil, []float64{1, 2}, []int32{0, 2, 1}, LaneOrder{})
	checkInside32(t, nil, nil, nil, []int32{0}, LaneOrder{})
}

// TestWindowsInside32Guard requires a start outside [0, len(data)−n] or
// a bound shorter than n to panic before any lane is read — in the
// assembly a wild read otherwise — on every implementation and on the
// dispatched entry point, and NewLaneOrder to refuse anything but a
// permutation, whose lanes index the band.
func TestWindowsInside32Guard(t *testing.T) {
	data, b := make([]float64, 50), make([]float32, 20)
	for name, inside := range insideTests() {
		for _, tc := range []struct {
			upper, lower []float32
			starts       []int32
			n            int
		}{
			{b, b, []int32{0, 31}, 20},
			{b, b, []int32{-1}, 20},
			{b, b, []int32{30, math.MaxInt32}, 20},
			{b, b, []int32{math.MinInt32}, 20},
			{b, b[:19], []int32{0}, 20},
			{b[:19], b, []int32{0}, 20},
			{b, b, []int32{51}, 0},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: starts %v, %d lanes, bounds %d/%d: no panic", name, tc.starts, tc.n, len(tc.upper), len(tc.lower))
					}
				}()
				inside(tc.upper, tc.lower, data, tc.starts, identityOrder(tc.n))
			}()
		}
	}
	for _, at := range [][]int32{{1}, {-1}, {0, 0}, {1, 2, 0, 4}, {0, 1, 2, math.MaxInt32}, {3, 1, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewLaneOrder(%v): no panic", at)
				}
			}()
			NewLaneOrder(at)
		}()
	}
	// The order is copied: changing the caller's slice afterwards cannot
	// point the assembly outside the band.
	at := []int32{1, 0}
	o := NewLaneOrder(at)
	at[0] = math.MaxInt32
	if o.at[0] != 1 {
		t.Fatalf("NewLaneOrder kept the caller's slice: lane 0 at %d", o.at[0])
	}
}

// FuzzWindowsInside32 feeds raw bytes as (upper, lower) float32 lanes
// and a float64 series — any bit pattern: NaN payloads, ±Inf, ±0,
// subnormals, inverted bounds — with window starts drawn from a second
// byte string, the series' last window always among them, and requires
// every implementation's enclosure test to equal the definition. mode
// picks the bounds: 0 the raw lanes; 1 the tightest band enclosing the
// windows; 2 that band with one lane of one bound moved inward by one
// float32 step, so that a window's extreme falls outside; 3 that band
// inverted. shuffle picks the lane order the band is stored in: 0 the
// windows' own, then by shuffle mod 3 the same, a spread order or a
// permutation drawn from shuffle (testOrder). A raw band is read as
// stored; a tightest one is laid out in the order, its moved lane
// chosen in window order.
func FuzzWindowsInside32(f *testing.F) {
	mk := func(upper, lower []float32, data []float64) []byte {
		b := make([]byte, 0, 4*(len(upper)+len(lower))+8*len(data))
		for _, x := range upper {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		for _, x := range lower {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		for _, x := range data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	nan32, inf32, negz32 := float32(nan), float32(inf), float32(math.Copysign(0, -1))
	// Seeds, as (upper..., lower..., data...) with n lanes per bound:
	// every n from 1 to 9, either side of the 16-lane block and 100 in
	// each mode, then the NaN contract's lanes and inverted bounds on raw
	// lanes, then the cases where a lane's extremes over the windows and
	// the per-window comparisons could disagree.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 20, 100} {
		data := make([]float64, n+11)
		for i := range data {
			data[i] = float64(i%7)/2 - 1.25
		}
		data[len(data)-1] = 3 // the last window holds the series' extreme
		b := make([]float32, n)
		for mode := byte(0); mode < 4; mode++ {
			for shuffle := uint64(0); shuffle < 3; shuffle++ {
				f.Add(mk(b, b, data), n, []byte{0, 5, byte(n - 1), 11}, mode, shuffle)
			}
		}
	}
	f.Add(mk([]float32{1, 1}, []float32{-1, -1}, []float64{nan, 0, nan, 0.5}), 2, []byte{0, 1}, byte(0), uint64(0))
	f.Add(mk([]float32{nan32, 1}, []float32{nan32, -1}, []float64{9, 0, -9, 0.5}), 2, []byte{0, 1}, byte(0), uint64(0))
	f.Add(mk([]float32{inf32, 0}, []float32{-inf32, negz32}, []float64{-inf, math.Copysign(0, -1), inf, 0}), 2, []byte{0, 1, 2}, byte(0), uint64(0))
	f.Add(mk([]float32{0}, []float32{0}, []float64{math.Copysign(0, -1), 0}), 1, []byte{0, 1}, byte(0), uint64(0))
	f.Add(mk([]float32{-1, 2, 0}, []float32{1, -2, 0}, []float64{0, 0, 0, 0}), 3, []byte{0, 1}, byte(0), uint64(0)) // inverted
	f.Add(mk([]float32{inf32}, []float32{-inf32}, []float64{inf, -inf, nan}), 1, []byte{0, 1, 2}, byte(0), uint64(0))
	band := func(n int, u, l float32) (upper, lower []float32) {
		upper, lower = make([]float32, n), make([]float32, n)
		for i := range upper {
			upper[i], lower[i] = u, l
		}
		return upper, lower
	}
	// The lane sits in a whole 4-lane column, in the n mod 4 tail, and in
	// a 16-lane block.
	for _, c := range []struct{ n, lane int }{{4, 1}, {17, 16}, {20, 5}} {
		n, lane := c.n, c.lane
		// A lane NaN in every window (starts n and 0, the last window
		// first): inside in every mode, and under a band inverted there.
		data := make([]float64, 2*n)
		data[lane], data[n+lane] = nan, nan
		upper, lower := band(n, 1, -1)
		for mode := byte(0); mode < 4; mode++ {
			f.Add(mk(upper, lower, data), n, []byte{0}, mode, uint64(0))
			f.Add(mk(upper, lower, data), n, []byte{0}, mode, uint64(1))
		}
		upper[lane], lower[lane] = -1, 1
		f.Add(mk(upper, lower, data), n, []byte{0}, byte(0), uint64(0))
		// An outside value, above or below, in the first window compared
		// and NaN in the same lane of the last, and the other way round:
		// outside every time.
		upper, lower = band(n, 1, -1)
		for _, out := range []float64{9, -9} {
			data = make([]float64, 2*n)
			data[n+lane], data[lane] = out, nan
			f.Add(mk(upper, lower, data), n, []byte{0}, byte(0), uint64(0))
			data[n+lane], data[lane] = nan, out
			f.Add(mk(upper, lower, data), n, []byte{0}, byte(0), uint64(0))
		}
		// ±Inf lanes against a finite band (outside) and an infinite one.
		data = make([]float64, 2*n)
		data[lane], data[n+1] = inf, -inf
		f.Add(mk(upper, lower, data), n, []byte{0}, byte(0), uint64(0))
		f.Add(mk(upper, lower, data), n, []byte{0}, byte(1), uint64(0))
		upper, lower = band(n, inf32, -inf32)
		f.Add(mk(upper, lower, data), n, []byte{0}, byte(0), uint64(0))
		// Bounds inverted on the tail lane alone, over windows of zeros.
		upper, lower = band(n, 1, -1)
		upper[n-1], lower[n-1] = -1, 1
		f.Add(mk(upper, lower, make([]float64, 2*n)), n, []byte{0}, byte(0), uint64(0))
	}

	f.Fuzz(func(t *testing.T, raw []byte, n int, picks []byte, mode byte, shuffle uint64) {
		if n < 0 || n > 256 || len(raw) < 8*n || len(picks) > 64 {
			return
		}
		lanes := (len(raw) - 8*n) / 8
		if lanes < n || lanes == 0 {
			return
		}
		upper, lower := make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			upper[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			lower[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(n+i):]))
		}
		data := make([]float64, lanes)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*n+8*i:]))
		}
		last := int32(lanes - n)
		starts := []int32{last}
		for _, b := range picks {
			starts = append(starts, int32(int(b)%(int(last)+1)))
		}
		order := testOrder(rand.New(rand.NewSource(int64(shuffle))), n, int(shuffle%3))
		if mode%4 != 0 && n > 0 {
			upper, lower = enclosingBounds(data, starts, n)
			switch mode % 4 {
			case 2:
				i := 0
				if len(picks) > 0 {
					i = int(picks[0]) % n
				}
				if mode&4 == 0 {
					upper[i] = math.Nextafter32(upper[i], float32(math.Inf(-1)))
				} else {
					lower[i] = math.Nextafter32(lower[i], float32(math.Inf(1)))
				}
			case 3:
				upper, lower = lower, upper
			}
			upper, lower = stored(upper, lower, order)
		}
		checkInside32(t, upper, lower, data, starts, order)
	})
}

// BenchmarkWindowsInside32 is the heap open's containment test on one
// leaf's shape — 64 windows of 100 lanes at scattered starts of a
// 200 000-point walk, inside their tightest band stored in the spread
// order — per form, beside the loop of dispatched DistFlat32 calls on
// windows laid out in that order and beside the band laid out in window
// order before a test in the identity order; ns/window is the column.
func BenchmarkWindowsInside32(b *testing.B) {
	const n, rows = 100, 64
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 200_000)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() / 4
		data[i] = v
	}
	starts := make([]int32, rows)
	for j := range starts {
		starts[j] = rng.Int31n(int32(len(data) - n + 1))
	}
	order := testOrder(rng, n, 1)
	upper, lower := enclosingBounds(data, starts, n)
	upper, lower = stored(upper, lower, order)
	run := func(b *testing.B, inside insideFunc) {
		for b.Loop() {
			if !inside(upper, lower, data, starts, order) {
				b.Fatal("the enclosing band refused its windows")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/window")
	}
	b.Run("distflat32", func(b *testing.B) {
		run(b, func(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
			w := make([]float64, n)
			for _, p := range starts {
				for i, v := range data[p : int(p)+n] {
					w[order.at[i]] = v
				}
				if DistFlat32(upper, lower, w) != 0 {
					return false
				}
			}
			return true
		})
	})
	// The order applied before the kernel instead of in it: the band
	// laid out in window order in Go, then the dispatched test in the
	// identity order.
	identity := identityOrder(n)
	b.Run("laid-out", func(b *testing.B) {
		u, l := make([]float32, n), make([]float32, n)
		run(b, func(upper, lower []float32, data []float64, starts []int32, order LaneOrder) bool {
			for i := range u {
				u[i], l[i] = upper[order.at[i]], lower[order.at[i]]
			}
			return WindowsInside32(u, l, data, starts, identity)
		})
	})
	for _, im := range Impls() {
		b.Run(im.Name, func(b *testing.B) { run(b, im.WindowsInside32) })
	}
}
