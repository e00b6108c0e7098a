package series

import (
	"math/rand"
	"slices"
	"testing"
)

func randomSeries(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]float64, n)
	v := 0.0
	for i := range ts {
		v += rng.NormFloat64()
		ts[i] = v
	}
	return ts
}

func TestNormModeString(t *testing.T) {
	if NormNone.String() != "raw" ||
		NormGlobal.String() != "z-norm(series)" ||
		NormPerSubsequence.String() != "z-norm(subsequence)" {
		t.Fatal("unexpected NormMode strings")
	}
	if NormMode(9).String() != "NormMode(9)" {
		t.Fatal("unexpected fallback string")
	}
}

func TestExtractorRaw(t *testing.T) {
	ts := []float64{1, 2, 3, 4}
	e := NewExtractor(ts, NormNone)
	w := e.Extract(1, 2, nil)
	if w[0] != 2 || w[1] != 3 {
		t.Fatalf("Extract = %v", w)
	}
	if e.Len() != 4 || e.Mode() != NormNone {
		t.Fatal("Len/Mode wrong")
	}
}

func TestExtractorGlobal(t *testing.T) {
	ts := randomSeries(1, 300)
	e := NewExtractor(ts, NormGlobal)
	mean, std := MeanStd(e.Data())
	if !almostEqual(mean, 0, 1e-9) || !almostEqual(std, 1, 1e-9) {
		t.Fatalf("global norm data mean/std = %v, %v", mean, std)
	}
	// Input untouched.
	if ts[0] == e.Data()[0] && ts[1] == e.Data()[1] && ts[2] == e.Data()[2] {
		t.Fatal("global normalization appears to be identity")
	}
	// Extraction is a view of the normalized data.
	w := e.Extract(10, 5, nil)
	for i := range w {
		if w[i] != e.Data()[10+i] {
			t.Fatal("global extract should be a view")
		}
	}
}

func TestExtractorPerSubsequence(t *testing.T) {
	ts := randomSeries(2, 300)
	e := NewExtractor(ts, NormPerSubsequence)
	buf := make([]float64, 0, 64)
	for p := 0; p+50 <= len(ts); p += 17 {
		got := e.Extract(p, 50, buf)
		want := ZNormalize(ts[p : p+50])
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-8) {
				t.Fatalf("per-sub extract mismatch at p=%d i=%d: %v vs %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestExtractorPerSubConstantWindow(t *testing.T) {
	ts := []float64{3, 3, 3, 3, 7}
	e := NewExtractor(ts, NormPerSubsequence)
	w := e.Extract(0, 4, nil)
	for _, v := range w {
		if v != 0 {
			t.Fatalf("constant window should normalize to zeros, got %v", w)
		}
	}
}

func TestExtractCopy(t *testing.T) {
	ts := []float64{1, 2, 3, 4}
	e := NewExtractor(ts, NormNone)
	c := e.ExtractCopy(1, 2)
	ts[1] = 99
	if c[0] != 2 {
		t.Fatal("ExtractCopy must copy")
	}
}

func TestExtractPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewExtractor([]float64{1, 2}, NormNone).Extract(1, 5, nil)
}

func TestTransformQuery(t *testing.T) {
	q := []float64{1, 2, 3}
	eRaw := NewExtractor([]float64{1, 2, 3, 4}, NormNone)
	got := eRaw.TransformQuery(q)
	for i := range q {
		if got[i] != q[i] {
			t.Fatal("raw mode should copy query unchanged")
		}
	}
	got[0] = 99
	if q[0] == 99 {
		t.Fatal("TransformQuery must not alias input")
	}
	ePer := NewExtractor([]float64{1, 2, 3, 4}, NormPerSubsequence)
	z := ePer.TransformQuery(q)
	mean, _ := MeanStd(z)
	if !almostEqual(mean, 0, 1e-12) {
		t.Fatal("per-sub mode should z-normalize the query")
	}
}

func TestTransformQueryGlobalMatchesExtract(t *testing.T) {
	ts := randomSeries(8, 400)
	e := NewExtractor(ts, NormGlobal)
	gm, gs := e.GlobalParams()
	if gs <= 0 {
		t.Fatalf("GlobalParams = %v, %v", gm, gs)
	}
	for _, p := range []int{0, 57, 300} {
		got := e.TransformQuery(ts[p : p+50])
		want := e.ExtractCopy(p, 50)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d i=%d: transform %v != extract %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestTransformQueryConstantGlobalSeries(t *testing.T) {
	e := NewExtractor([]float64{5, 5, 5, 5}, NormGlobal)
	out := e.TransformQuery([]float64{1, 2})
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("constant series should map queries to zeros, got %v", out)
	}
}

// TestWithinAtAgainstExtract checks the one-start test at a position: in
// every mode, Verify(p) holds exactly when the window extracted at p is at
// most eps from q.
func TestWithinAtAgainstExtract(t *testing.T) {
	ts := randomSeries(3, 400)
	for _, mode := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		e := NewExtractor(ts, mode)
		q := e.ExtractCopy(37, 40)
		ver := MakeVerifier(e, q, 0.8)
		for p := 0; p+40 <= len(ts); p += 11 {
			w := e.Extract(p, 40, nil)
			want := Chebyshev(q, w) <= 0.8
			if got := ver.Verify(p); got != want {
				t.Fatalf("mode=%v p=%d: Verify=%v want %v", mode, p, got, want)
			}
		}
	}
}

// TestWithinAtConstantWindow: under per-subsequence normalisation a
// constant window is all zeros, so a zero query matches it and a query
// more than eps from zero does not.
func TestWithinAtConstantWindow(t *testing.T) {
	ts := []float64{5, 5, 5, 1, 9}
	e := NewExtractor(ts, NormPerSubsequence)
	if v := MakeVerifier(e, []float64{0, 0, 0}, 0.01); !v.Verify(0) {
		t.Fatal("zero query should match constant window under per-sub norm")
	}
	if v := MakeVerifier(e, []float64{0, 0.5, 0}, 0.4); v.Verify(0) {
		t.Fatal("query exceeding eps against zeros should not match")
	}
}

// TestVerifierMatchesWithinAt holds the batch path to the one-start path:
// Within over a batch of starts keeps exactly the starts p for which
// Verify(p) holds, in position order, in memory and over a store, in
// every mode.
func TestVerifierMatchesWithinAt(t *testing.T) {
	ts := randomSeries(4, 500)
	for _, mode := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		for _, stored := range []bool{false, true} {
			e := NewExtractor(ts, mode)
			if stored {
				e.AttachStore(&memReader{data: ts})
			}
			q := e.ExtractCopy(100, 60)
			ver := MakeVerifier(e, q, 0.5)
			var starts []int32
			var want []Match
			for p := 0; p+60 <= len(ts); p += 5 {
				starts = append(starts, int32(p))
				if ver.Verify(p) {
					want = append(want, Match{Start: p, Dist: -1})
				}
			}
			if len(want) == 0 {
				t.Fatalf("mode=%v stored=%v: no start verified; the query's own window is among them", mode, stored)
			}
			if got := ver.Within(starts, nil); !slices.Equal(got, want) {
				t.Fatalf("mode=%v stored=%v: Within %v, want %v", mode, stored, got, want)
			}
		}
	}
}

// TestVerifierMatchesChebyshev holds the verifier to the definition:
// every distance Sweep reports is series.Chebyshev against the extracted
// window, negative exactly when that exceeds the limit, and Within keeps
// exactly the windows at most eps away — in memory and over a store, in
// every mode, and for a batch wider than the verifier's scratch, so the
// wide and row-by-row paths run.
func TestVerifierMatchesChebyshev(t *testing.T) {
	ts := randomSeries(4, 500)
	for _, mode := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		for _, stored := range []bool{false, true} {
			e := NewExtractor(ts, mode)
			if stored {
				e.AttachStore(&memReader{data: ts})
			}
			q := e.ExtractCopy(100, 60)
			var starts []int32
			for p := 0; p+60 <= len(ts); p += 3 {
				starts = append(starts, int32(p))
			}
			ver := MakeVerifier(e, q, 0.5)
			var want []Match
			for j, d := range ver.Sweep(starts, 0.5) {
				p := int(starts[j])
				exact := Chebyshev(q, e.Extract(p, 60, nil))
				if exact <= 0.5 && d != exact || exact > 0.5 && d >= 0 {
					t.Fatalf("mode=%v stored=%v p=%d: Sweep %v, Chebyshev %v", mode, stored, p, d, exact)
				}
				if exact <= 0.5 {
					want = append(want, Match{Start: p, Dist: -1})
				}
			}
			if got := ver.Within(starts, nil); !slices.Equal(got, want) {
				t.Fatalf("mode=%v stored=%v: Within %v, want %v", mode, stored, got, want)
			}
			for _, m := range want {
				if !ver.Verify(m.Start) {
					t.Fatalf("mode=%v stored=%v: Verify(%d) rejects a twin", mode, stored, m.Start)
				}
			}
		}
	}
}

func TestVerifierSelfMatch(t *testing.T) {
	ts := randomSeries(5, 200)
	e := NewExtractor(ts, NormGlobal)
	q := e.ExtractCopy(50, 30)
	ver := MakeVerifier(e, q, 0)
	if !ver.Verify(50) {
		t.Fatal("query must match its own source window at eps=0")
	}
}

func TestVerifierPerSubConstantWindow(t *testing.T) {
	ts := []float64{2, 2, 2, 2, 9, -4}
	e := NewExtractor(ts, NormPerSubsequence)
	q := []float64{0, 0, 0, 0}
	ver := MakeVerifier(e, q, 0.1)
	if !ver.Verify(0) {
		t.Fatal("zero query should verify against constant window")
	}
	q2 := []float64{1, 0, 0, 0}
	ver2 := MakeVerifier(e, q2, 0.5)
	if ver2.Verify(0) {
		t.Fatal("non-zero query should fail against constant window at eps=0.5")
	}
}

func TestSortMatches(t *testing.T) {
	ms := []Match{{Start: 5}, {Start: 1}, {Start: 3}}
	SortMatches(ms)
	if ms[0].Start != 1 || ms[1].Start != 3 || ms[2].Start != 5 {
		t.Fatalf("SortMatches = %v", ms)
	}
	starts := MatchStarts(ms)
	if starts[0] != 1 || starts[2] != 5 {
		t.Fatalf("MatchStarts = %v", starts)
	}
}
