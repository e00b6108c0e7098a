package series

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestSub(t *testing.T) {
	ts := []float64{1, 2, 3, 4, 5}
	got, err := Sub(ts, 1, 3)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sub = %v, want %v", got, want)
		}
	}
}

func TestSubIsView(t *testing.T) {
	ts := []float64{1, 2, 3}
	got, _ := Sub(ts, 0, 2)
	ts[0] = 99
	if got[0] != 99 {
		t.Fatal("Sub should return a view, not a copy")
	}
}

func TestSubBounds(t *testing.T) {
	ts := []float64{1, 2, 3}
	cases := []struct{ p, l int }{
		{-1, 2}, {0, 0}, {0, -1}, {0, 4}, {2, 2}, {3, 1},
	}
	for _, c := range cases {
		if _, err := Sub(ts, c.p, c.l); err == nil {
			t.Errorf("Sub(%d,%d): want error", c.p, c.l)
		}
	}
	if _, err := Sub(ts, 2, 1); err != nil {
		t.Errorf("Sub(2,1): unexpected error %v", err)
	}
}

func TestNumSubsequences(t *testing.T) {
	cases := []struct{ n, l, want int }{
		{10, 3, 8}, {10, 10, 1}, {10, 11, 0}, {0, 1, 0}, {5, 0, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := NumSubsequences(c.n, c.l); got != c.want {
			t.Errorf("NumSubsequences(%d,%d) = %d, want %d", c.n, c.l, got, c.want)
		}
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(mean, 5, 1e-12) || !almostEqual(std, 2, 1e-12) {
		t.Fatalf("MeanStd = %v, %v; want 5, 2", mean, std)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	mean, std := MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Fatalf("MeanStd(nil) = %v, %v; want 0, 0", mean, std)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Fatalf("MinMax(nil) = %v, %v; want +Inf, -Inf", lo, hi)
	}
}

func TestZNormalize(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6}
	z := ZNormalize(s)
	mean, std := MeanStd(z)
	if !almostEqual(mean, 0, 1e-12) || !almostEqual(std, 1, 1e-12) {
		t.Fatalf("normalized mean/std = %v, %v", mean, std)
	}
	// Original untouched.
	if s[0] != 1 {
		t.Fatal("ZNormalize modified its input")
	}
}

func TestZNormalizeConstant(t *testing.T) {
	z := ZNormalize([]float64{4, 4, 4})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant sequence should normalize to zeros, got %v", z)
		}
	}
}

func TestZNormalizeToAliasing(t *testing.T) {
	s := []float64{1, 2, 3}
	ZNormalizeTo(s, s)
	mean, _ := MeanStd(s)
	if !almostEqual(mean, 0, 1e-12) {
		t.Fatalf("in-place normalization failed: %v", s)
	}
}

func TestChebyshev(t *testing.T) {
	a := []float64{1, 5, 3}
	b := []float64{2, 2, 3}
	if got := Chebyshev(a, b); got != 3 {
		t.Fatalf("Chebyshev = %v, want 3", got)
	}
	if got := Chebyshev(a, a); got != 0 {
		t.Fatalf("Chebyshev(a,a) = %v, want 0", got)
	}
}

func TestEuclidean(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Euclidean(a, b); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Euclidean = %v, want 5", got)
	}
	if got := SquaredEuclidean(a, b); !almostEqual(got, 25, 1e-12) {
		t.Fatalf("SquaredEuclidean = %v, want 25", got)
	}
}

func TestWithinEuclidean(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if !WithinEuclidean(a, b, 5) {
		t.Fatal("should be within 5")
	}
	if WithinEuclidean(a, b, 4.99) {
		t.Fatal("should not be within 4.99")
	}
}

func TestEuclideanThresholdFor(t *testing.T) {
	if got := EuclideanThresholdFor(2, 25); !almostEqual(got, 10, 1e-12) {
		t.Fatalf("got %v, want 10", got)
	}
}
