package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// windowSweeps is every implementation's candidate sweep plus the
// dispatched entry point, by name.
func windowSweeps() map[string]func(data []float64, starts []int32, s []float64, limit float64, dists []float64) {
	sweeps := map[string]func(data []float64, starts []int32, s []float64, limit float64, dists []float64){"dispatched": SweepWindows}
	for _, im := range Impls() {
		sweeps[im.Name] = im.SweepWindows
	}
	return sweeps
}

// checkWindowSweep bit-compares every implementation's candidate sweep,
// and the dispatched entry point, against the definition: the scalar
// single-row form with both bounds set to the window.
func checkWindowSweep(t *testing.T, data []float64, starts []int32, s []float64, limit float64) {
	t.Helper()
	for name, sweep := range windowSweeps() {
		dists := make([]float64, len(starts)+1)
		for j := range dists {
			dists[j] = 12345 // a row the sweep skips must not pass for a result
		}
		sweep(data, starts, s, limit, dists)
		if dists[len(starts)] != 12345 {
			t.Fatalf("%s wrote past one entry per start", name)
		}
		for j, p := range starts {
			w := data[p : int(p)+len(s)]
			want, ok := distAbandonFlatScalar(w, w, s, limit)
			if !ok {
				want = Abandoned
			}
			if got := dists[j]; !bitsEq(got, want) {
				t.Fatalf("%s window %d at %d (n=%d limit=%v) = %v (%x), definition %v (%x)",
					name, j, p, len(s), limit, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSweepWindowsDifferential is the candidate sweep's grid: lane
// counts either side of the 4-lane step, the 8-lane pair and the check
// schedule, the first and last window of the series, repeated and
// descending starts, the NaN contract's lanes in the query and in the
// series, and every degenerate limit — near-miss data (a random walk
// against a query cut from it) so rows abandon at every depth.
func TestSweepWindowsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	limits := []float64{0.2, 1, 3, 0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 60, 100, 128, 131} {
		for trial := 0; trial < 24; trial++ {
			data := make([]float64, n+rng.Intn(300))
			v := 0.0
			for i := range data {
				v += rng.NormFloat64() / 4
				data[i] = v
			}
			last := int32(len(data) - n)
			s := make([]float64, n)
			copy(s, data[rng.Intn(int(last)+1):])
			for i := range s {
				s[i] += rng.NormFloat64() / 8
			}
			if trial%3 == 2 {
				hostileLanes(rng, data, s)
			}
			starts := []int32{0, last, last, 0}
			for k := rng.Intn(70); k > 0; k-- {
				starts = append(starts, rng.Int31n(last+1))
			}
			for p := last; p >= 0 && p > last-9; p-- { // descending, overlapping
				starts = append(starts, p)
			}
			limit := limits[trial%len(limits)]
			checkWindowSweep(t, data, starts, s, limit)
		}
	}
	// No starts, and windows of no lanes.
	checkWindowSweep(t, []float64{1, 2}, nil, []float64{1}, 1)
	checkWindowSweep(t, []float64{1, 2}, []int32{0, 2, 1}, nil, -1)
	checkWindowSweep(t, nil, []int32{0}, nil, 0)
}

// TestSweepWindowsSchedule moves the lane at which a window first
// exceeds the limit across every step of a row, in a middle row, and
// requires its neighbours to be scored regardless.
func TestSweepWindowsSchedule(t *testing.T) {
	const n = 45
	for cross := 0; cross < n; cross++ {
		data := make([]float64, 3*n)
		data[n+cross] = -10
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.5
		}
		checkWindowSweep(t, data, []int32{0, n, 2 * n}, s, 1)
	}
}

// TestSweepWindowsGuard requires a start outside [0, len(data)−n], or a
// dists shorter than starts, to panic before any lane is read — in the
// assembly a wild read otherwise — on every implementation and on the
// dispatched entry point.
func TestSweepWindowsGuard(t *testing.T) {
	data, s := make([]float64, 50), make([]float64, 20)
	for name, sweep := range windowSweeps() {
		for _, tc := range []struct {
			starts []int32
			s      []float64
			dists  int
		}{
			{[]int32{0, 31}, s, 2},
			{[]int32{-1}, s, 1},
			{[]int32{30, math.MaxInt32}, s, 2},
			{[]int32{math.MinInt32}, s, 1},
			{[]int32{0}, make([]float64, 51), 1},
			{[]int32{51}, nil, 1},
			{[]int32{0, 30}, s, 1},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: starts %v, %d lanes, %d dists: no panic", name, tc.starts, len(tc.s), tc.dists)
					}
				}()
				sweep(data, tc.starts, tc.s, 1, make([]float64, tc.dists))
			}()
		}
	}
}

// FuzzSweepWindows feeds raw bytes as (data..., s..., limit) lanes — any
// bit pattern — and start positions drawn from a second byte string,
// and requires every implementation's candidate sweep to equal the
// definition bit for bit: overlapping, repeated and unordered starts
// included.
func FuzzSweepWindows(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	// Seeds, as (data..., s..., limit) with n = len(s).
	f.Add(mk(1, 2, 3, 4, 5, 2, 3, 0.5), 2, []byte{0, 1, 2, 3, 3, 0})
	f.Add(mk(1, nan, 3, inf, 5, nan, 3, 0.5), 2, []byte{3, 2, 1, 0})
	f.Add(mk(inf, -inf, inf, inf, inf, 1), 2, []byte{0, 1})
	f.Add(mk(1, 2, 3, 2, nan), 1, []byte{2, 0})
	f.Add(mk(1, 2, 3, 2, -1), 1, []byte{1, 1, 1})
	long := make([]float64, 150+67+1)
	for i := range long {
		long[i] = float64(i%11) - 5
	}
	long[150+67] = 9
	f.Add(mk(long...), 67, []byte{0, 83, 11, 40, 83})

	f.Fuzz(func(t *testing.T, raw []byte, n int, picks []byte) {
		lanes := len(raw)/8 - 1
		if n < 0 || n > 256 || lanes < 2*n || len(picks) > 64 {
			return
		}
		at := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		data := make([]float64, lanes-n)
		for i := range data {
			data[i] = at(i)
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = at(len(data) + i)
		}
		starts := make([]int32, len(picks))
		for j, b := range picks {
			starts[j] = int32(int(b) % (len(data) - n + 1))
		}
		checkWindowSweep(t, data, starts, s, at(lanes))
	})
}
