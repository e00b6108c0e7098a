package series

import "testing"

func TestRollingAppend(t *testing.T) {
	ts := randomSeries(71, 200)
	r := NewRolling(ts[:120])
	r.Append(ts[120:]...)
	want := NewRolling(ts)
	for p := 0; p+30 <= 200; p += 7 {
		m1, s1 := r.MeanStd(p, 30)
		m2, s2 := want.MeanStd(p, 30)
		if !almostEqual(m1, m2, 1e-9) || !almostEqual(s1, s2, 1e-9) {
			t.Fatalf("window %d: (%v,%v) vs (%v,%v)", p, m1, s1, m2, s2)
		}
	}
}

func TestExtractorAppendRaw(t *testing.T) {
	e := NewExtractor([]float64{1, 2, 3}, NormNone)
	e.Append(4, 5)
	if e.Len() != 5 || e.Data()[4] != 5 {
		t.Fatalf("append failed: %v", e.Data())
	}
}

func TestExtractorAppendGlobalFrozenParams(t *testing.T) {
	ts := randomSeries(72, 300)
	e := NewExtractor(ts[:200], NormGlobal)
	gm, gs := e.GlobalParams()
	e.Append(ts[200:]...)
	// Appended values must be normalized with the ORIGINAL parameters.
	for i := 200; i < 300; i++ {
		want := (ts[i] - gm) / gs
		if !almostEqual(e.Data()[i], want, 1e-12) {
			t.Fatalf("appended value %d: %v, want %v", i, e.Data()[i], want)
		}
	}
	// Old values untouched.
	gm2, gs2 := e.GlobalParams()
	if gm != gm2 || gs != gs2 {
		t.Fatal("global params must stay frozen")
	}
}

func TestExtractorAppendGlobalConstant(t *testing.T) {
	e := NewExtractor([]float64{2, 2, 2, 2}, NormGlobal)
	e.Append(7, 9)
	if e.Data()[4] != 0 || e.Data()[5] != 0 {
		t.Fatalf("σ=0 appends should map to zeros: %v", e.Data())
	}
}

func TestExtractorAppendPerSubsequence(t *testing.T) {
	ts := randomSeries(73, 400)
	grown := NewExtractor(append([]float64(nil), ts[:300]...), NormPerSubsequence)
	grown.Append(ts[300:]...)
	fresh := NewExtractor(ts, NormPerSubsequence)
	for p := 250; p+60 <= 400; p += 11 {
		a := grown.ExtractCopy(p, 60)
		b := fresh.ExtractCopy(p, 60)
		for i := range a {
			if !almostEqual(a[i], b[i], 1e-9) {
				t.Fatalf("window %d differs after append", p)
			}
		}
	}
}
