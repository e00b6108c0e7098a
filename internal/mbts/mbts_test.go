package mbts

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

func randSeqs(seed int64, count, l int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for i := range out {
		s := make([]float64, l)
		for j := range s {
			s[j] = rng.NormFloat64() * 3
		}
		out[i] = s
	}
	return out
}

func TestEnclose(t *testing.T) {
	set := [][]float64{
		{1, 5, 2},
		{3, 1, 2},
		{2, 3, 9},
	}
	b, err := Enclose(set...)
	if err != nil {
		t.Fatal(err)
	}
	wantU := []float64{3, 5, 9}
	wantL := []float64{1, 1, 2}
	for i := range wantU {
		if b.Upper[i] != wantU[i] || b.Lower[i] != wantL[i] {
			t.Fatalf("bounds = %v / %v", b.Upper, b.Lower)
		}
	}
}

func TestEncloseErrors(t *testing.T) {
	if _, err := Enclose(); err == nil {
		t.Fatal("empty Enclose must error")
	}
	if _, err := Enclose([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mixed lengths must error")
	}
}

func TestFromSequenceTight(t *testing.T) {
	s := []float64{1, -2, 3}
	b := FromSequence(s)
	if b.Width() != 0 {
		t.Fatalf("singleton width = %v", b.Width())
	}
	if kernel.DistFlat(b.Upper, b.Lower, s) != 0 {
		t.Fatal("distance to seed must be 0")
	}
}

func TestContainment(t *testing.T) {
	set := randSeqs(1, 10, 20)
	b, _ := Enclose(set...)
	for i, s := range set {
		if d := kernel.DistFlat(b.Upper, b.Lower, s); d != 0 {
			t.Fatalf("enclosed sequence %d at distance %v", i, d)
		}
	}
}

func TestDistSequence(t *testing.T) {
	b, _ := Enclose([]float64{0, 0}, []float64{1, 1})
	if d := kernel.DistFlat(b.Upper, b.Lower, []float64{2, 0.5}); d != 1 {
		t.Fatalf("dist above = %v, want 1", d)
	}
	if d := kernel.DistFlat(b.Upper, b.Lower, []float64{-3, 0.5}); d != 3 {
		t.Fatalf("dist below = %v, want 3", d)
	}
	if d := kernel.DistFlat(b.Upper, b.Lower, []float64{2, -4}); d != 4 {
		t.Fatalf("max rule = %v, want 4", d)
	}
}

func TestDistMBTS(t *testing.T) {
	b1, _ := Enclose([]float64{0, 0}, []float64{1, 1})
	b2, _ := Enclose([]float64{3, 0.5}, []float64{4, 0.8})
	// Timestamp 0: gap 3-1 = 2; timestamp 1: overlap → 0.
	if d := b1.DistMBTS(b2); d != 2 {
		t.Fatalf("DistMBTS = %v, want 2", d)
	}
	if d := b2.DistMBTS(b1); d != 2 {
		t.Fatalf("DistMBTS not symmetric: %v", d)
	}
	if d := b1.DistMBTS(b1); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestExpandToMBTSAndContains(t *testing.T) {
	b1, _ := Enclose([]float64{0, 0}, []float64{1, 1})
	b2, _ := Enclose([]float64{-1, 2})
	b1.ExpandToMBTS(b2)
	if b1.Upper[0] != 1 || b1.Upper[1] != 2 || b1.Lower[0] != -1 || b1.Lower[1] != 0 {
		t.Fatalf("bounds after expand = %v / %v", b1.Upper, b1.Lower)
	}
}

func TestWidthIncrease(t *testing.T) {
	b, _ := Enclose([]float64{0, 0}, []float64{1, 1})
	s := []float64{2, -1}
	inc := kernel.WidthIncreaseSequence(b.Upper, b.Lower, s)
	if inc != 2 { // +1 above at t0, +1 below at t1
		t.Fatalf("WidthIncreaseSequence = %v, want 2", inc)
	}
	before := b.Width()
	b.ExpandToSequence(s)
	if got := b.Width() - before; got != inc {
		t.Fatalf("actual increase %v != predicted %v", got, inc)
	}

	o, _ := Enclose([]float64{-2, 0.5}, []float64{3, 0.6})
	b2, _ := Enclose([]float64{0, 0}, []float64{1, 1})
	incM := b2.WidthIncreaseMBTS(o)
	beforeM := b2.Width()
	b2.ExpandToMBTS(o)
	if got := b2.Width() - beforeM; got != incM {
		t.Fatalf("MBTS increase %v != predicted %v", got, incM)
	}
}

// TestSplitHeuristics pins the split measures' loops on the lanes no
// build produces but the comparisons still order: a NaN bound, ±Inf, an
// inverted band and ±0, each result compared to the bit. In particular
// Eq. 3 never selects a gap that involves a NaN bound (both of its
// comparisons are false there), which farthestChildren's reach bound
// relies on when it skips NaN bounds.
func TestSplitHeuristics(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	band := func(upper, lower float64) MBTS { return MBTS{Upper: []float64{upper}, Lower: []float64{lower}} }
	cases := []struct {
		name                  string
		b, o                  MBTS
		dist, width, increase float64 // DistMBTS(b, o), b.Width(), b.WidthIncreaseMBTS(o)
	}{
		{"plain gap below", band(1, 0), band(4, 3), 2, 1, 3},
		{"plain gap above", band(6, 5), band(1, 0), 4, 1, 5},
		{"NaN bounds of b", band(nan, nan), band(1, 0), 0, nan, 0},
		{"NaN lower of b, above o", band(5, nan), band(1, 0), 0, nan, 0},
		{"NaN upper of o", band(5, 4), band(nan, -1), 0, 1, 5},
		{"NaN lower of o, below", band(1, 0), band(4, nan), 0, 1, 3},
		{"+Inf band above", band(inf, inf), band(1, 0), inf, nan, inf},
		{"-Inf band below", band(-inf, -inf), band(1, 0), inf, nan, inf},
		{"equal infinities", band(inf, inf), band(inf, inf), 0, nan, 0},
		{"unbounded o", band(1, 0), band(inf, -inf), 0, 1, inf},
		{"inverted bands: above wins", band(0, 3), band(1, 5), 2, -3, 1},
		{"inverted bands: both bounds grow", band(0, 3), band(1, 2), 2, -3, 2},
		{"inverted o inside b", band(3, 0), band(1, 2), 0, 3, 0},
		{"-0 against +0", band(negZero, negZero), band(0, 0), 0, 0, 0},
		{"+0 against -0", band(0, 0), band(negZero, negZero), 0, 0, 0},
		{"-0 upper over +0 lower", band(negZero, 0), band(negZero, 0), 0, 0, 0},
	}
	for _, c := range cases {
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"DistMBTS", c.b.DistMBTS(c.o), c.dist},
			{"Width", c.b.Width(), c.width},
			{"WidthIncreaseMBTS", c.b.WidthIncreaseMBTS(c.o), c.increase},
		} {
			if math.Float64bits(m.got) != math.Float64bits(m.want) && !(math.IsNaN(m.got) && math.IsNaN(m.want)) {
				t.Errorf("%s: %s = %v (%x), want %v (%x)", c.name, m.name, m.got, math.Float64bits(m.got), m.want, math.Float64bits(m.want))
			}
		}
	}
}

func TestCopyFromSetTo(t *testing.T) {
	b, _ := Enclose([]float64{1, 2}, []float64{3, 0})
	d := New(2)
	d.CopyFrom(b)
	d.Upper[0] = 99
	if b.Upper[0] == 99 {
		t.Fatal("CopyFrom must not share storage")
	}
	if d.Lower[1] != b.Lower[1] {
		t.Fatal("CopyFrom mismatch")
	}
	d.SetTo([]float64{5, 5})
	if d.Upper[0] != 5 || d.Lower[0] != 5 || d.Upper[1] != 5 {
		t.Fatal("SetTo mismatch")
	}
}

// TestRowViews pins the block layout: row i of a block is [i*l,
// (i+1)*l) of each bound, and writes through a row land in the block.
func TestRowViews(t *testing.T) {
	blk := New(3 * 2)
	for i := 0; i < 3; i++ {
		blk.Row(i, 2).SetTo([]float64{float64(i), float64(-i)})
	}
	blk.Row(1, 2).ExpandToMBTS(blk.Row(2, 2))
	if !slices.Equal(blk.Upper, []float64{0, 0, 2, -1, 2, -2}) || !slices.Equal(blk.Lower, []float64{0, 0, 1, -2, 2, -2}) {
		t.Fatalf("block after writes through rows: %v / %v", blk.Upper, blk.Lower)
	}
}

// Property — Lemma 1 (the TS-Index pruning guarantee): for any query Q
// and any sequence S enclosed by MBTS B, d(Q, B) ≤ d∞(Q, S). Hence if
// d(Q, B) > ε no enclosed sequence can be a twin.
func TestLemma1LowerBound(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 6 {
			return true
		}
		for _, v := range raw {
			if v > 1e100 || v < -1e100 {
				return true
			}
		}
		l := len(raw) / 3
		q, s1, s2 := raw[:l], raw[l:2*l], raw[2*l:3*l]
		b, _ := Enclose(s1, s2)
		dq := kernel.DistFlat(b.Upper, b.Lower, q)
		return dq <= series.Chebyshev(q, s1)+1e-9 && dq <= series.Chebyshev(q, s2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: DistMBTS lower-bounds the Chebyshev distance between any two
// members of the respective MBTS (the soundness requirement for using
// Eq. 3 during internal-node splits).
func TestDistMBTSLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		l := 2 + rng.Intn(30)
		setA := randSeqs(int64(iter)*2+1, 3, l)
		setB := randSeqs(int64(iter)*2+2, 3, l)
		a, _ := Enclose(setA...)
		b, _ := Enclose(setB...)
		d := a.DistMBTS(b)
		for _, s1 := range setA {
			for _, s2 := range setB {
				if d > series.Chebyshev(s1, s2)+1e-9 {
					t.Fatalf("iter %d: Eq.3 distance %v exceeds member distance %v", iter, d, series.Chebyshev(s1, s2))
				}
			}
		}
	}
}

// Property: the abandoning Eq. 2 kernel agrees with DistFlat for any
// limit, the limit inclusive.
func TestAbandonAgreement(t *testing.T) {
	b, _ := Enclose([]float64{0, 0, 0})
	s := []float64{0.5, 2, 0.1}
	for _, c := range []struct {
		limit float64
		ok    bool
	}{{3, true}, {1.5, false}, {2, true}} {
		if d, ok := kernel.DistAbandonFlat(b.Upper, b.Lower, s, c.limit); ok != c.ok || ok && d != 2 {
			t.Fatalf("limit %v: got %v, %v", c.limit, d, ok)
		}
	}

	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 500; iter++ {
		l := 1 + rng.Intn(40)
		set := randSeqs(int64(iter)+100, 4, l)
		b, _ := Enclose(set[:3]...)
		q := set[3]
		full := kernel.DistFlat(b.Upper, b.Lower, q)
		limit := rng.Float64() * 10
		d, ok := kernel.DistAbandonFlat(b.Upper, b.Lower, q, limit)
		if full <= limit {
			if !ok || d != full {
				t.Fatalf("iter %d: abandon disagrees (full=%v limit=%v got %v,%v)", iter, full, limit, d, ok)
			}
		} else if ok {
			t.Fatalf("iter %d: should abandon (full=%v limit=%v)", iter, full, limit)
		}
	}
}
