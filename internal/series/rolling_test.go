package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRollingMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts := make([]float64, 500)
	for i := range ts {
		ts[i] = rng.NormFloat64() * 10
	}
	r := NewRolling(ts)
	for _, l := range []int{1, 2, 7, 50, 500} {
		for p := 0; p+l <= len(ts); p += 13 {
			wantMean, wantStd := MeanStd(ts[p : p+l])
			gotMean := r.Mean(p, l)
			gotMean2, gotStd := r.MeanStd(p, l)
			if !almostEqual(gotMean, wantMean, 1e-8) || !almostEqual(gotMean2, wantMean, 1e-8) {
				t.Fatalf("mean(%d,%d) = %v, want %v", p, l, gotMean, wantMean)
			}
			// Prefix-sum variance suffers cancellation; allow a
			// scale-aware tolerance.
			tol := 1e-5 * (1 + math.Abs(wantMean))
			if !almostEqual(gotStd, wantStd, tol) {
				t.Fatalf("std(%d,%d) = %v, want %v", p, l, gotStd, wantStd)
			}
		}
	}
}

func TestRollingConstantWindow(t *testing.T) {
	ts := []float64{5, 5, 5, 5}
	r := NewRolling(ts)
	mean, std := r.MeanStd(0, 4)
	if mean != 5 || std != 0 {
		t.Fatalf("got %v, %v; want 5, 0", mean, std)
	}
}

// Property: Chebyshev satisfies the metric axioms on random vectors.
func TestChebyshevMetricAxioms(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		n := len(raw) / 3
		a, b, c := raw[:n], raw[n:2*n], raw[2*n:3*n]
		dab := Chebyshev(a, b)
		dba := Chebyshev(b, a)
		dac := Chebyshev(a, c)
		dcb := Chebyshev(c, b)
		if dab != dba { // symmetry
			return false
		}
		if Chebyshev(a, a) != 0 { // identity
			return false
		}
		// Triangle inequality with scale-relative tolerance: inputs are
		// arbitrary float64s, so rounding error scales with magnitude.
		bound := dac + dcb
		return dab <= bound+1e-9+1e-12*bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (paper §3.1): twins at ε have Euclidean distance ≤ ε√l.
func TestTwinEuclideanRelation(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		for _, v := range raw {
			if v > 1e150 || v < -1e150 { // avoid float64 overflow in squares
				return true
			}
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		eps := Chebyshev(a, b) // tightest ε making them twins
		return Euclidean(a, b) <= EuclideanThresholdFor(eps, n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (paper §3.1): time-aligned subwindows of twins are twins.
func TestTwinClosureUnderSubwindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 10 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		eps := Chebyshev(a, b)
		l := 1 + rng.Intn(n)
		p := rng.Intn(n - l + 1)
		if Chebyshev(a[p:p+l], b[p:p+l]) > eps+1e-12 {
			t.Fatalf("subwindow violates twin closure at iter %d", iter)
		}
	}
}
